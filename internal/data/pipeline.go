package data

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The prefetch pipeline is the one reader of a columnar file. It
// overlaps three stages: a reader goroutine issues sequential raw-block
// reads ahead of the consumer, a pool of decode workers verifies checksums
// and expands blocks into pooled chunks in parallel, and a bounded ordered
// ring delivers the decoded chunks strictly in file order — so the tuple
// stream (and therefore the tree every scan builds) is the file's tuple
// sequence at every depth and worker count.
//
// Backpressure and order both hang off one invariant: at most depth
// blocks are in flight (reader holds a token per block; the consumer
// releases it only after the block is fully consumed), so block seq and
// seq+depth never coexist and slot seq%depth is unambiguous. Each slot is
// a 1-buffered channel: workers deposit out of order, the consumer
// receives in order. Errors and EOF travel the same ordered path as
// data, so a failure surfaces only after every block before it was
// delivered. Close tears everything down without leaking goroutines:
// the reader and workers select on quit at every blocking point.

const (
	// pipelineDepth is the number of blocks in flight (read ahead of the
	// consumer).
	pipelineDepth = 4
	// maxDecodeWorkers caps the decode goroutines at min(4, GOMAXPROCS).
	maxDecodeWorkers = 4
)

// decodeWorkers returns the decode worker count of every scan.
func decodeWorkers() int {
	return min(maxDecodeWorkers, runtime.GOMAXPROCS(0))
}

// PipelineObserver receives a PipelineLive reading each time the consumer
// takes a block off the ordered ring — continuous backpressure telemetry
// while the scan runs, not just the post-scan PipelineStats. It is called
// from the consuming goroutine, once per block (never per row), so
// implementations must be safe there and should be cheap — a handful of
// atomic stores.
type PipelineObserver interface {
	ObservePipeline(PipelineLive)
}

// PipelineLive is one instantaneous backpressure reading of a running
// pipelined scan.
type PipelineLive struct {
	// InFlight is the number of blocks currently admitted by the token
	// bucket (being read, decoded, parked, or consumed); Ring is how many
	// decoded blocks sit finished in the ordered ring awaiting the
	// consumer. InFlight pinned at the depth with an empty Ring means the
	// consumer is starved by read/decode; a full Ring means the consumer
	// is the bottleneck.
	InFlight int
	Ring     int
	// Blocks counts blocks delivered to the consumer so far.
	Blocks int64
	// Read, Decode and Deliver are the cumulative stage times so far
	// (same meaning as PipelineStats, read mid-flight).
	Read, Decode, Deliver time.Duration
}

// PipelineStats reports what a pipelined scan did: per-stage accumulated
// time (read = filesystem wait, decode = checksum+expand across workers,
// deliver = consumer wait on the ordered ring) plus block and byte
// volumes. Zero-valued (Enabled false) when the scan was not pipelined.
type PipelineStats struct {
	Enabled        bool
	Depth, Workers int
	Blocks         int64
	PhysBytes      int64
	Start          time.Time
	Read           time.Duration
	Decode         time.Duration
	Deliver        time.Duration
}

// PipelineReporter is implemented by chunk scanners that can report
// pipeline stage statistics (and by wrappers forwarding to one).
type PipelineReporter interface {
	PipelineStats() PipelineStats
}

// PhysicalReader is implemented by chunk scanners that know how many
// bytes they actually read from the filesystem — distinct from the
// logical (decoded) tuple bytes iostats derives from row counts.
type PhysicalReader interface {
	PhysicalBytesRead() int64
}

// PipelinedChunkSource is implemented by sources whose chunked scan runs
// behind the prefetch/decode pipeline and can report live readings.
type PipelinedChunkSource interface {
	Source
	ScanChunksPipeline(obs PipelineObserver) (ChunkScanner, error)
}

// ScanChunksPipelined begins a chunked scan over src whose pipeline, if
// the source has one, reports live readings to obs (nil ok); other
// sources fall back to the plain chunked scan. It is the entry point the
// scan phases of internal/core use.
func ScanChunksPipelined(src Source, obs PipelineObserver) (ChunkScanner, error) {
	if ps, ok := src.(PipelinedChunkSource); ok {
		return ps.ScanChunksPipeline(obs)
	}
	return src.ScanChunks()
}

// pipeJob is a raw block travelling from the reader to a decode worker.
type pipeJob struct {
	seq int64
	raw []byte
	err error // io.EOF after the last block, or a read failure
}

// pipeItem is a decoded block (or the stream's terminal error) travelling
// from a worker to the consumer through the ordered ring.
type pipeItem struct {
	ch  *Chunk
	err error
}

// colPipeline is the ChunkScanner backed by the asynchronous pipeline.
type colPipeline struct {
	src     *ColSource
	br      *blockReader
	depth   int
	workers int
	obs     PipelineObserver

	pool    *ChunkPool
	rawFree chan []byte
	tokens  chan struct{}
	jobs    chan pipeJob
	slots   []chan pipeItem
	quit    chan struct{}
	wg      sync.WaitGroup

	// consumer state (single-goroutine)
	next   int64
	rows   int64 // rows of the blocks delivered so far
	cur    *Chunk
	pos    int
	done   bool
	err    error
	closed bool
	cerr   error

	once sync.Once

	start     time.Time
	blocks    int64
	readNS    atomic.Int64 // written by the reader, read live by observe
	deliverNS int64        // consumer-goroutine only

	mu       sync.Mutex
	decodeNS int64 // accumulated across workers
}

func newColPipeline(src *ColSource, br *blockReader, depth, workers int, obs PipelineObserver) *colPipeline {
	p := &colPipeline{
		src:     src,
		br:      br,
		depth:   depth,
		workers: workers,
		obs:     obs,
		pool:    NewChunkPool(len(src.schema.Attributes), src.blockRows),
		rawFree: make(chan []byte, depth+workers),
		tokens:  make(chan struct{}, depth),
		jobs:    make(chan pipeJob, depth),
		slots:   make([]chan pipeItem, depth),
		quit:    make(chan struct{}),
		start:   time.Now(),
	}
	for i := range p.slots {
		p.slots[i] = make(chan pipeItem, 1)
	}
	p.wg.Add(1 + workers)
	go p.reader()
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// reader issues sequential block reads ahead of the consumer, bounded by
// the token bucket, and terminates the job stream with the first error
// (including io.EOF).
func (p *colPipeline) reader() {
	defer p.wg.Done()
	defer close(p.jobs)
	for seq := int64(0); ; seq++ {
		select {
		case p.tokens <- struct{}{}:
		case <-p.quit:
			return
		}
		var buf []byte
		select {
		case buf = <-p.rawFree:
		default:
		}
		t0 := time.Now()
		raw, err := p.br.readRawBlock(buf)
		p.readNS.Add(int64(time.Since(t0)))
		select {
		case p.jobs <- pipeJob{seq: seq, raw: raw, err: err}:
		case <-p.quit:
			return
		}
		if err != nil {
			return
		}
	}
}

// worker verifies and decodes raw blocks into pooled chunks, depositing
// each into its sequence slot. Terminal jobs (EOF, read errors) pass
// through unchanged so they arrive in order.
func (p *colPipeline) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		item := pipeItem{err: job.err}
		if job.err == nil {
			ch := p.pool.Get()
			t0 := time.Now()
			if err := p.src.decodeBlock(job.raw, job.seq, ch); err != nil {
				p.pool.Put(ch)
				item.err = err
			} else {
				item.ch = ch
			}
			p.mu.Lock()
			p.decodeNS += int64(time.Since(t0))
			p.mu.Unlock()
			select {
			case p.rawFree <- job.raw:
			default:
			}
		}
		select {
		case p.slots[job.seq%int64(p.depth)] <- item:
		case <-p.quit:
			if item.ch != nil {
				p.pool.Put(item.ch)
			}
			return
		}
	}
}

// NextChunk implements ChunkScanner: decoded blocks are copied into dst
// in file order.
func (p *colPipeline) NextChunk(dst *Chunk) error {
	if p.closed {
		return errors.New("data: scan of closed pipeline")
	}
	appended := false
	for !dst.Full() {
		if p.cur == nil || p.pos >= p.cur.Len() {
			if p.cur != nil {
				p.pool.Put(p.cur)
				p.cur = nil
				<-p.tokens // block fully consumed; admit the next read
			}
			if p.done || p.err != nil {
				break
			}
			t0 := time.Now()
			item := <-p.slots[p.next%int64(p.depth)]
			p.deliverNS += int64(time.Since(t0))
			p.next++
			if item.err != nil {
				<-p.tokens // the terminal job's token
				switch {
				case item.err != io.EOF:
					p.err = item.err
				case p.rows != p.src.count:
					p.err = &BlockError{Path: p.src.path, Block: p.blocks,
						Err: fmt.Errorf("%w: blocks hold %d rows, footer declares %d", ErrColTruncated, p.rows, p.src.count)}
				default:
					p.done = true
				}
				break
			}
			p.cur, p.pos = item.ch, 0
			p.blocks++
			p.rows += int64(p.cur.Len())
			p.observe()
		}
		n := dst.Cap() - dst.Len()
		if rem := p.cur.Len() - p.pos; n > rem {
			n = rem
		}
		dst.AppendFrom(p.cur, p.pos, n)
		p.pos += n
		appended = true
	}
	if !appended {
		if p.err != nil {
			return p.err
		}
		if p.done {
			return io.EOF
		}
	}
	return nil
}

// observe pushes one live backpressure reading to the configured
// observer. Runs on the consuming goroutine, once per delivered block.
func (p *colPipeline) observe() {
	if p.obs == nil {
		return
	}
	ring := 0
	for _, slot := range p.slots {
		ring += len(slot)
	}
	p.mu.Lock()
	decode := p.decodeNS
	p.mu.Unlock()
	p.obs.ObservePipeline(PipelineLive{
		InFlight: len(p.tokens),
		Ring:     ring,
		Blocks:   p.blocks,
		Read:     time.Duration(p.readNS.Load()),
		Decode:   time.Duration(decode),
		Deliver:  time.Duration(p.deliverNS),
	})
}

// Close tears the pipeline down (idempotent): the reader and workers
// observe quit at every blocking point, so Close never strands a
// goroutine, whether the scan completed, failed, or was abandoned early.
func (p *colPipeline) Close() error {
	p.once.Do(func() {
		p.closed = true
		close(p.quit)
		if p.cur != nil {
			p.pool.Put(p.cur)
			p.cur = nil
		}
		p.wg.Wait()
		p.cerr = p.br.Close()
	})
	return p.cerr
}

// PhysicalBytesRead implements PhysicalReader.
func (p *colPipeline) PhysicalBytesRead() int64 { return p.br.PhysicalBytesRead() }

// PipelineStats implements PipelineReporter. Meaningful once the scan has
// completed (or failed); stage times are cumulative across goroutines.
func (p *colPipeline) PipelineStats() PipelineStats {
	p.mu.Lock()
	decode := p.decodeNS
	p.mu.Unlock()
	return PipelineStats{
		Enabled:   true,
		Depth:     p.depth,
		Workers:   p.workers,
		Blocks:    p.blocks,
		PhysBytes: p.br.PhysicalBytesRead(),
		Start:     p.start,
		Read:      time.Duration(p.readNS.Load()),
		Decode:    time.Duration(decode),
		Deliver:   time.Duration(p.deliverNS),
	}
}
