package inmem

import "sync"

// Pool is the one executor of an operation: a fixed set of workers that
// run the items of nested forks (Fork). The caller's goroutine is worker
// 0 (Start); the other workers run what its forks and every fork
// below them offer. A fork offers every item but the first, runs that one
// itself and joins the rest: it runs those nobody took, newest first, and
// while a taken one is unfinished it runs other offered items instead of
// blocking. A frame waits only on items it offered, so forks nest to any
// depth without deadlock. A fit given a Worker (Family.Build) forks its
// builder pass per numeric attribute, its split search and partition per
// attribute at every node of at least forkRows rows, and its two subtrees
// at every split whose children both reach forkRows. Each item writes
// only its own attribute's list range, its own subtree's ranges or its
// worker's scratch, so the grown tree does not depend on who ran what.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   sync.Cond
	queue  []*task // offered tasks, oldest first; an entry no longer queued is skipped
	queued int     // entries of queue still queued
	joined bool    // set by stop: the helpers return
	// shared counts, per kind, the fit tasks run by a worker other than
	// the owner of the fit that offered them.
	shared [numTaskKinds]int64
}

// A Worker is one worker of a Pool: the handle through which a frame it
// runs offers fork items to the pool's other workers. A nil *Worker runs
// every item inline, in order.
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
	numTaskKinds                  // the kinds of a fit's tasks, counted in Pool.shared

	forkItem = numTaskKinds // an item of Fork
)

type taskState uint8

const (
	queued taskState = iota
	running
	done
)

// task is one offered item of a fork: run(item, w, own) on the worker w
// running it, own when that is the frame that offered it, at its join.
// The tasks of one fork share run and differ in item.
type task struct {
	run   func(item int, w *Worker, own bool)
	item  int
	kind  taskKind
	owner int       // the worker running the fit (or the frame) that offered the task
	state taskState // guarded by Pool.mu
}

// NewPool returns a pool of workers workers; one or fewer means no helper
// and a nil Worker, which runs every fork inline.
func NewPool(workers int) *Pool {
	p := &Pool{workers: max(workers, 1)}
	p.cond.L = &p.mu
	return p
}

// Start starts the pool's workers-1 helper goroutines and returns worker
// 0, for the caller's goroutine, and stop, which returns once every
// helper has stopped; the caller runs its forks on the Worker, then calls
// stop. With one worker the Worker is nil. A Pool starts once.
func (p *Pool) Start() (w *Worker, stop func()) {
	if p.workers == 1 {
		return nil, func() {}
	}
	var wg sync.WaitGroup
	wg.Add(p.workers - 1)
	for id := 1; id < p.workers; id++ {
		go p.help(&Worker{pool: p, id: id}, &wg)
	}
	return &Worker{pool: p}, func() {
		p.mu.Lock()
		p.joined = true
		p.cond.Broadcast()
		p.mu.Unlock()
		wg.Wait()
	}
}

// Fork runs item(w', i) for every i in [0, n) on behalf of a frame running
// on w, w' being the worker that runs the item, and returns the error of
// the lowest-numbered item that failed. A nil w runs the items in order
// and stops at the first error. Otherwise Fork offers items 1..n-1 to the
// pool, runs item 0 on w and joins the rest: every item runs even when one
// fails, and all have finished when Fork returns. Work too small to fork
// runs inline on the running worker, never on a nil one: a fit's scratch
// is the running worker's.
func Fork(w *Worker, n int, item func(w *Worker, i int) error) error {
	if w == nil || n < 2 {
		for i := 0; i < n; i++ {
			if err := item(w, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	w.fork(forkItem, w.id, n, func(i int, w *Worker, _ bool) { errs[i] = item(w, i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Shared returns the number of fit tasks run so far on w's pool by a
// worker other than the owner of the fit that offered them; 0 for a nil
// Worker.
func (w *Worker) Shared() int64 {
	if w == nil {
		return 0
	}
	p := w.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, c := range p.shared {
		n += c
	}
	return n
}

// help is a helper's loop: it runs queued tasks on w until the pool
// stops.
func (p *Pool) help(w *Worker, wg *sync.WaitGroup) {
	defer wg.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.joined {
		if p.queued > 0 {
			p.runTaken(w)
		} else {
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
	if w.id != t.owner && t.kind != forkItem {
		p.shared[t.kind]++
	}
	p.cond.Broadcast()
}

// fork runs run(0, w, true) and, on whichever worker w' takes it,
// run(i, w', own) for every i in [1, n), n ≥ 2: it offers those items to
// the pool as tasks of kind, owned by owner, and joins them after item 0.
func (w *Worker) fork(kind taskKind, owner, n int, run func(i int, w *Worker, own bool)) {
	ts := make([]task, n-1)
	for i := range ts {
		ts[i] = task{run: run, item: i + 1, kind: kind, owner: owner}
	}
	w.offer(ts)
	run(0, w, true)
	w.join(ts)
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
