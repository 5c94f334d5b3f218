package inmem

import "sync"

// Pool shares concurrent fits among a fixed set of workers. Run hands
// each worker a job, one family's fit typically; a worker with no job
// left runs the tasks that the still-running fits offer, until every job
// has finished. A fit given a Worker (Family.Build) offers its builder
// pass per numeric attribute, its split search and its partition per
// attribute at every node of at least forkRows rows, and the right
// subtree of every split whose two children both reach forkRows. The
// fit then joins every task it offered: it runs those nobody took
// itself, newest first, and while a taken one is unfinished it runs other
// queued tasks instead of blocking. Each task writes only its own
// attribute's list range, its own subtree's ranges or its worker's
// private scratch, so the grown tree does not depend on who ran what.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   sync.Cond
	queue  []*task // offered tasks, oldest first; an entry no longer queued is skipped
	queued int     // entries of queue still queued
	next   int     // the next job to hand out
	jobs   int
	active int // jobs not yet finished
	err    error
	// shared counts, per kind, the tasks run by a worker other than the
	// owner of the fit that offered them.
	shared [numTaskKinds]int64
}

// A Worker is one worker of a Pool: the handle through which a fit it
// runs offers tasks to the pool's other workers. A nil *Worker runs every
// offered task inline, in order.
type Worker struct {
	pool *Pool
	id   int
}

type taskKind uint8

const (
	builderTask   taskKind = iota // a numeric attribute's sort or merge and gather
	searchTask                    // phase 1 of a node's split search, per attribute
	scanTask                      // phase 2, per numeric attribute
	partitionTask                 // a node's row array or one of its lists
	subtreeTask                   // a split's right subtree
	numTaskKinds
)

type taskState uint8

const (
	queued taskState = iota
	running
	done
)

// task is one offered unit of a fit: run(item, w, own) on the worker w
// running it, own when that is the frame that offered it, at its join.
// The tasks of one fork share run and differ in item.
type task struct {
	run   func(item int, w *Worker, own bool)
	item  int
	kind  taskKind
	owner int       // the worker running the fit that offered the task
	state taskState // guarded by Pool.mu
}

// NewPool returns a pool of workers goroutines; one or fewer means jobs
// run in order on the caller's goroutine with a nil Worker.
func NewPool(workers int) *Pool {
	p := &Pool{workers: max(workers, 1)}
	p.cond.L = &p.mu
	return p
}

// Run runs job(w, i) for every i in [0, jobs) and returns the first error
// a job returned. With one worker the jobs run in order on the caller's
// goroutine, each with a nil Worker, and the first error stops the rest.
// Otherwise every worker takes the next job while one is left, then runs
// offered tasks; Run returns once every job has finished and every worker
// has stopped, so a failed job leaves no goroutine behind, and the other
// jobs still run. A Pool runs once.
func (p *Pool) Run(jobs int, job func(w *Worker, i int) error) error {
	if p.workers == 1 || jobs == 0 {
		for i := 0; i < jobs; i++ {
			if err := job(nil, i); err != nil {
				return err
			}
		}
		return nil
	}
	p.jobs, p.active = jobs, jobs
	var wg sync.WaitGroup
	for id := 0; id < p.workers; id++ {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			p.work(w, job)
		}(&Worker{pool: p, id: id})
	}
	wg.Wait()
	return p.err
}

// Shared returns the number of tasks run by a worker other than the owner
// of the fit that offered them.
func (p *Pool) Shared() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, c := range p.shared {
		n += c
	}
	return n
}

// work is one worker's loop: jobs first, then queued tasks, until every
// job has finished.
func (p *Pool) work(w *Worker, job func(*Worker, int) error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case p.next < p.jobs:
			i := p.next
			p.next++
			p.mu.Unlock()
			err := job(w, i)
			p.mu.Lock()
			if err != nil && p.err == nil {
				p.err = err
			}
			if p.active--; p.active == 0 {
				p.cond.Broadcast()
			}
		case p.queued > 0:
			p.runTaken(w)
		case p.active == 0:
			return
		default:
			p.cond.Wait()
		}
	}
}

// runTaken takes the oldest queued task and runs it on w, with p.mu held
// on entry and on return.
func (p *Pool) runTaken(w *Worker) {
	t := p.queue[0]
	for t.state != queued {
		p.queue[0] = nil
		p.queue = p.queue[1:]
		t = p.queue[0]
	}
	p.queue[0] = nil
	p.queue = p.queue[1:]
	t.state = running
	p.queued--
	p.mu.Unlock()
	t.run(t.item, w, false)
	p.mu.Lock()
	t.state = done
	if w.id != t.owner {
		p.shared[t.kind]++
	}
	p.cond.Broadcast()
}

// offer queues ts for the pool's idle workers.
func (w *Worker) offer(ts []task) {
	p := w.pool
	p.mu.Lock()
	for i := range ts {
		p.queue = append(p.queue, &ts[i])
	}
	p.queued += len(ts)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// join returns once every task of ts, all offered by the calling frame on
// w, has finished. It runs the ones still queued itself, newest first;
// while a taken one is unfinished, it runs other queued tasks, and blocks
// only when there are none.
func (w *Worker) join(ts []task) {
	p := w.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(ts) - 1; i >= 0; i-- {
		if t := &ts[i]; t.state == queued {
			t.state = running
			p.queued--
			p.mu.Unlock()
			t.run(t.item, w, true)
			p.mu.Lock()
			t.state = done
		}
	}
	for i := range ts {
		for ts[i].state != done {
			if p.queued > 0 {
				p.runTaken(w)
			} else {
				p.cond.Wait()
			}
		}
	}
}
