package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aio"
	"repro/internal/bufpool"
	"repro/internal/cache"
	"repro/internal/eventproc"
	"repro/internal/events"
	"repro/internal/httpproto"
	"repro/internal/options"
	"repro/internal/reactor"
	"repro/internal/respcache"
)

// The traced run explains the end-to-end numbers layer by layer. It
// measures one untraced and one traced slice against the real server —
// the traced one records a client.rtt span per request batch, and the
// throughput difference between the two is the tracing overhead — and
// then replays the same seeded request stream in the driver through the
// layers' public functions, with a span around each call. The server
// itself carries no tracing.
//
// The replay follows the path copshttp serves by default, with
// -event-driven off: per connection a reader goroutine leases a chunk,
// blocks in Read and emits what arrived as a ReadReady event; the
// reactor's dispatcher thread hands the event to the reactive processor,
// whose worker decodes the requests; each request takes an asynchronous
// stat hop and then a read hop (an open hop at or above the large-file
// threshold) through aio, whose completions re-enter the processor; the
// reply head is rendered into a leased buffer and written with the body
// by one blocking writev, and a large file's body follows by sendfile.
// Two simplifications: the replay runs one shard, and it serves the
// requests of a pipelined batch one after another, where the server
// overlaps their file hops.

// span is one timed interval. Spans of one request batch share the batch
// root as parent and carry the request id they serve.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records one goroutine's spans in memory; ids are unique across
// the tracers sharing ids. Times are ns since t0.
type tracer struct {
	t0    time.Time
	ids   *atomic.Int64
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent, req int64) int {
	t.spans = append(t.spans, span{Name: name, ID: t.ids.Add(1), Parent: parent, Req: req, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.now() }

// add records a span whose end was stamped on another goroutine.
func (t *tracer) add(name string, parent, req, start, end int64) {
	t.spans = append(t.spans, span{Name: name, ID: t.ids.Add(1), Parent: parent, Req: req, Start: start, End: end})
}

// selfTimes checks that every span ends after it starts and lies inside
// its parent, and returns each name's total self time: a span's duration
// minus the part of it its children cover.
func selfTimes(spans []span) (map[string]int64, error) {
	byID := make(map[int64]*span, len(spans))
	kids := make(map[int64][]*span)
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return nil, fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo := max(k.Start, reach)
			if k.End > lo {
				covered += k.End - lo
				reach = k.End
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self, nil
}

// The span names of the replay. batchSpan is the root of one request
// batch (one write on one connection); every other name is a layer.
const (
	batchSpan     = "replay.batch"
	rttSpan       = "client.rtt"
	readSpan      = "nserver.read"
	dispatchSpan  = "reactor.dispatch"
	hopSpan       = "eventproc.hop"
	registerSpan  = "reactor.register"
	decodeSpan    = "httpproto.decode"
	renderSpan    = "httpproto.render"
	bufpoolSpan   = "bufpool.get_release"
	respcacheSpan = "respcache.update"
	cacheSpan     = "cache.get"
	statSpan      = "aio.stat"
	aioReadSpan   = "aio.read"
	openSpan      = "aio.open"
	writevSpan    = "nserver.writev"
	sendfileSpan  = "net.sendfile"
)

// layerSpans are the spans whose self time the layer budget sums.
var layerSpans = []string{readSpan, dispatchSpan, hopSpan, registerSpan, decodeSpan, renderSpan,
	bufpoolSpan, respcacheSpan, cacheSpan, statSpan, aioReadSpan, openSpan, writevSpan, sendfileSpan}

// readChunk and headLease mirror the framework's read chunk and reply head
// lease sizes, which it does not export.
const (
	readChunk = 32 << 10
	headLease = 512
)

// replay holds the layer instances the driver calls, configured as the
// default server configures one shard of its own: options.COPSHTTP()
// sizes, an LRU file cache refusing files at or above the large-file
// threshold, the rendered-response cache invalidated with it, a reactor
// whose dispatcher hands events to the reactive processor, and
// asynchronous file-I/O completions re-entering that processor.
type replay struct {
	wl        *workload
	d         *docroot
	root      string
	largeFile int64
	fc        *cache.Cache
	rc        *respcache.Cache
	rx        *reactor.Reactor
	svc       *aio.Service

	tr0 time.Time
	ids atomic.Int64
}

func newReplay(wl *workload, d *docroot, root string, largeFile int64, t0 time.Time) (*replay, error) {
	o := options.COPSHTTP()
	r := &replay{wl: wl, d: d, root: root, largeFile: largeFile, tr0: t0}
	r.rc = respcache.New(runtime.NumCPU(), 0)
	var err error
	r.fc, err = cache.New(o.CacheCapacity, o.Cache, cache.Config{
		Shards:        cache.DefaultShards(o.CacheCapacity),
		MaxEntryBytes: largeFile,
		OnRemove:      r.rc.Invalidate,
	})
	if err != nil {
		return nil, err
	}
	queue, err := events.NewQueue(o.EventScheduling, o.Quotas)
	if err != nil {
		return nil, err
	}
	proc, err := eventproc.New(eventproc.Config{Name: "reactive", Queue: queue, Workers: o.EventThreads, Allocation: o.Allocation})
	if err != nil {
		return nil, err
	}
	src := &stampSource{Source: reactor.NewTimerSource(reactor.NewBasicSource("events")), t0: t0}
	if r.rx, err = reactor.New(reactor.Config{Source: src, DispatcherThreads: o.DispatcherThreads, Processor: proc}); err != nil {
		return nil, err
	}
	r.rx.Run()
	r.svc, err = aio.New(aio.Config{Workers: o.FileIOThreads, Mode: o.Completion, Sink: proc.Submit, Cache: r.fc})
	if err != nil {
		r.rx.Stop()
		return nil, err
	}
	r.svc.Start()
	return r, nil
}

func (r *replay) close() {
	r.svc.Stop()
	r.rx.Stop()
}

// stampSource is the reactor's event source with one addition: it stamps
// the time the dispatcher takes each replayed chunk.
type stampSource struct {
	reactor.Source
	t0 time.Time
}

func (s *stampSource) Next() (reactor.Ready, bool) {
	rd, ok := s.Source.Next()
	if c, isChunk := rd.Data.(*chunk); ok && isChunk {
		c.taken = int64(time.Since(s.t0))
	}
	return rd, ok
}

// chunk is one read of a connection's reader goroutine, carried by its
// ReadReady event with the times it passed each step, in ns since t0.
type chunk struct {
	lease            *bufpool.Buffer
	getStart, getEnd int64 // bufpool.Get
	readCall, read   int64 // Read called, Read returned
	emitted, taken   int64 // Emit called, the dispatcher took it
}

// inflight is the batch a session has written and awaits replies for.
type inflight struct {
	root  int64 // span id of the batch
	req   int64 // id of its first request
	files []*file
	sent  int64 // when the client started writing it
	done  chan error
}

// session replays one client connection's request stream. The session
// goroutine plays the client; the server side runs on a reader goroutine
// and on the reactor's and processor's threads, one step after another,
// so the session's tracer is never used by two goroutines at once.
type session struct {
	r      *replay
	tr     tracer
	ln     net.Listener
	next   func() *file
	buf    []byte
	served int

	// The connection: the client end, the server end, its reactor handle
	// and the reader goroutine; c is nil between connections.
	c       *conn
	srv     *net.TCPConn
	h       reactor.Handle
	reading sync.WaitGroup

	// The server side's state for the current batch, touched only by the
	// handler and the completions it chains.
	batches chan *inflight
	cur     *inflight
	pending []byte   // received bytes not yet decoded
	paths   []string // the batch's decoded requests, resolved
	k       int      // the request being served

	jobs    chan job
	replies chan error
	reader  sync.WaitGroup

	requests  int64
	sendBytes int64
	sendNs    int64
}

// job is one batch for the session's response reader.
type job struct {
	c     *conn
	files []*file
}

func (r *replay) newSession(conn int, seed int64) (*session, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &session{
		r:       r,
		tr:      tracer{t0: r.tr0, ids: &r.ids},
		ln:      ln,
		next:    r.wl.picker(r.d, seed, conn),
		buf:     make([]byte, r.wl.bufSize),
		batches: make(chan *inflight, 1),
		jobs:    make(chan job),
		replies: make(chan error, 1), // one batch in flight; a reply never blocks the reader
	}
	// The response reader drains replies concurrently with the server's
	// writes, as a real client does; large bodies would otherwise fill the
	// socket.
	s.reader.Add(1)
	go func() {
		defer s.reader.Done()
		n := 0
		for j := range s.jobs {
			var err error
			for _, f := range j.files {
				n++
				if err = j.c.get(r.d, f, n%r.wl.verifyEvery == 0); err != nil {
					break
				}
			}
			s.replies <- err
		}
	}()
	return s, nil
}

func (s *session) close() {
	if s.c != nil {
		s.hangUp(0, 0)
	}
	close(s.jobs)
	s.reader.Wait()
	s.ln.Close()
}

// connect opens a connection, registers its server end with the reactor
// and starts its reader goroutine, as the server's attach does.
func (s *session) connect(root, req int64) error {
	nc, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return err
	}
	cl := &conn{nc: nc, buf: s.buf}
	c, err := s.ln.Accept()
	if err != nil {
		cl.close()
		return err
	}
	srv := c.(*net.TCPConn)
	_ = srv.SetNoDelay(true)
	s.c, s.srv, s.served = cl, srv, 0
	i := s.tr.begin(registerSpan, root, req)
	s.h = s.r.rx.NewHandle()
	s.r.rx.Register(s.h, reactor.HandlerFunc(s.handle))
	s.reading.Add(1)
	go s.readLoop(srv, s.h)
	s.tr.end(i)
	return nil
}

// hangUp closes the connection from the client side, waits for the
// reader goroutine to see it end, and deregisters the handle.
func (s *session) hangUp(root, req int64) {
	s.c.close()
	s.srv.Close()
	s.reading.Wait()
	s.c = nil
	if root != 0 {
		i := s.tr.begin(registerSpan, root, req)
		s.r.rx.Deregister(s.h)
		s.tr.end(i)
	} else {
		s.r.rx.Deregister(s.h)
	}
}

// readLoop is the server's Read Request step on the goroutine path: lease
// a chunk, block in Read, emit what arrived as a ReadReady event.
func (s *session) readLoop(srv *net.TCPConn, h reactor.Handle) {
	defer s.reading.Done()
	src := s.r.rx.Source()
	for {
		c := &chunk{getStart: s.tr.now()}
		c.lease = bufpool.Get(readChunk)
		c.getEnd = s.tr.now()
		c.readCall = c.getEnd
		n, err := srv.Read(c.lease.Bytes())
		c.read = s.tr.now()
		if n > 0 {
			c.lease.SetLen(n)
			c.emitted = s.tr.now()
			if src.Emit(reactor.Ready{Type: reactor.ReadReady, Handle: h, Data: c}) != nil {
				c.lease.Release()
				return
			}
		} else {
			c.lease.Release()
		}
		if err != nil {
			return
		}
	}
}

// batch replays one write of requests and everything the server does for
// it; req is the id of its first request.
func (s *session) batch(req int64) error {
	files := make([]*file, s.r.wl.window)
	var reqs []byte
	for i := range files {
		files[i] = s.next()
		reqs = append(reqs, files[i].req...)
	}
	root := s.tr.begin(batchSpan, 0, req)
	rootID := s.tr.spans[root].ID
	if s.c == nil {
		if err := s.connect(rootID, req); err != nil {
			return err
		}
	}
	b := &inflight{root: rootID, req: req, files: files, done: make(chan error, 1)}
	s.jobs <- job{c: s.c, files: files}
	b.sent = s.tr.now()
	s.batches <- b
	if err := s.c.send(reqs); err != nil {
		return err
	}
	var err error
	select {
	case err = <-b.done:
	case <-time.After(5 * time.Second):
		return errors.New("the replayed server did not finish the batch within 5s")
	}
	if rerr := <-s.replies; err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	s.served += len(files)
	if s.r.wl.perConn > 0 && s.served >= s.r.wl.perConn {
		s.hangUp(rootID, req)
	}
	s.tr.end(root)
	s.requests += int64(len(files))
	return nil
}

// handle is the connection's event handler, run on a processor worker:
// the Decode Request step over one chunk. Once the whole batch is
// decoded it starts serving the requests, one after another.
func (s *session) handle(rd reactor.Ready) {
	c, ok := rd.Data.(*chunk)
	if !ok {
		return
	}
	start := s.tr.now()
	if s.cur == nil {
		s.cur = <-s.batches // sent before the batch's bytes
	}
	b, tr := s.cur, &s.tr
	tr.add(bufpoolSpan, 0, b.req, c.getStart, c.getEnd) // leased before the batch began
	tr.add(readSpan, b.root, b.req, max(b.sent, c.readCall), c.read)
	tr.add(dispatchSpan, b.root, b.req, c.emitted, c.taken)
	tr.add(hopSpan, b.root, b.req, c.taken, start)

	buf := c.lease.Bytes()
	if len(s.pending) > 0 {
		s.pending = append(s.pending, buf...)
		buf = s.pending
	}
	for len(s.paths) < len(b.files) {
		req := b.req + int64(len(s.paths))
		i := tr.begin(decodeSpan, b.root, req)
		v, used, err := httpproto.Codec{}.Decode(buf)
		tr.end(i)
		if err != nil {
			c.lease.Release()
			s.finish(err)
			return
		}
		if v == nil {
			break // the rest of the batch is in a later chunk
		}
		hr := v.(*httpproto.Request)
		if want := b.files[len(s.paths)].path; hr.Path != want {
			c.lease.Release()
			s.finish(fmt.Errorf("decoded %s, sent %s", hr.Path, want))
			return
		}
		s.paths = append(s.paths, filepath.Join(s.r.root, filepath.FromSlash(httpproto.CleanPath(hr.Path))))
		buf = buf[used:]
	}
	s.pending = append(s.pending[:0], buf...)
	i := tr.begin(bufpoolSpan, b.root, b.req)
	c.lease.Release()
	tr.end(i)
	if len(s.paths) == len(b.files) {
		s.serveNext()
	}
}

// finish ends the current batch.
func (s *session) finish(err error) {
	b := s.cur
	s.cur, s.paths, s.k = nil, s.paths[:0], 0
	b.done <- err
}

// serveNext starts the stat hop of the batch's next request, or ends the
// batch after its last.
func (s *session) serveNext() {
	if s.k == len(s.paths) {
		s.finish(nil)
		return
	}
	full, start := s.paths[s.k], s.tr.now()
	if _, err := s.r.svc.Stat(full, nil, 0, func(_ events.Token, info os.FileInfo, err error) {
		s.statDone(start, info, err)
	}); err != nil {
		s.finish(err)
	}
}

// statDone mirrors copshttp's stat completion: reconcile the rendered-
// response cache, then open a large file or read a small one.
func (s *session) statDone(start int64, info os.FileInfo, err error) {
	tr, b, full := &s.tr, s.cur, s.paths[s.k]
	req := b.req + int64(s.k)
	tr.add(statSpan, b.root, req, start, tr.now())
	if err != nil {
		s.finish(err)
		return
	}
	modTime, size := info.ModTime(), info.Size()
	i := tr.begin(respcacheSpan, b.root, req)
	if s.r.rc.Confirm(full, modTime, size) {
		s.r.fc.Remove(full)
	}
	tr.end(i)
	if s.r.largeFile > 0 && size >= s.r.largeFile {
		start := tr.now()
		if _, err := s.r.svc.Open(full, nil, 0, func(_ events.Token, f *os.File, info os.FileInfo, err error) {
			s.openDone(start, modTime, f, info, err)
		}); err != nil {
			s.finish(err)
		}
		return
	}
	// The cache lookup aio.ReadFile performs first, timed as a child of
	// the read; ReadFile repeats it, so hit and miss counts double alike.
	ai := tr.begin(aioReadSpan, b.root, req)
	ci := tr.begin(cacheSpan, tr.spans[ai].ID, req)
	s.r.fc.Get(full)
	tr.end(ci)
	if _, err := s.r.svc.ReadFile(full, nil, 0, func(_ events.Token, data []byte, err error) {
		tr.end(ai)
		s.fileDone(modTime, size, data, err)
	}); err != nil {
		s.finish(err)
	}
}

// response is the 200 copshttp renders for a file.
func response(full string, modTime time.Time) *httpproto.Response {
	resp := httpproto.AcquireResponse()
	resp.Status = 200
	resp.Proto = "HTTP/1.1"
	resp.Headers.Set("Content-Type", httpproto.MimeType(full))
	resp.Headers.Set("Accept-Ranges", "bytes")
	resp.Headers.Set("Last-Modified", httpproto.FormatHTTPDateCached(modTime))
	return resp
}

// fileDone mirrors copshttp's read completion: store the rendered head
// for the rendered-response cache and reply with head and body.
func (s *session) fileDone(modTime time.Time, size int64, data []byte, err error) {
	tr, b, full := &s.tr, s.cur, s.paths[s.k]
	req := b.req + int64(s.k)
	if err != nil {
		s.finish(err)
		return
	}
	resp := response(full, modTime)
	defer httpproto.ReleaseResponse(resp)
	resp.Body = data
	i := tr.begin(respcacheSpan, b.root, req)
	s.r.rc.Store(full, httpproto.AppendResponseHead(nil, resp), data, modTime, size)
	tr.end(i)
	if err := s.reply(req, resp); err != nil {
		s.finish(err)
		return
	}
	s.k++
	s.serveNext()
}

// openDone mirrors copshttp's large-file completion: reply with the head,
// then stream the body with sendfile.
func (s *session) openDone(start int64, modTime time.Time, f *os.File, info os.FileInfo, err error) {
	tr, b, full := &s.tr, s.cur, s.paths[s.k]
	req := b.req + int64(s.k)
	tr.add(openSpan, b.root, req, start, tr.now())
	if err != nil {
		s.finish(err)
		return
	}
	defer f.Close()
	resp := response(full, modTime)
	defer httpproto.ReleaseResponse(resp)
	resp.Headers.Set("Content-Length", strconv.FormatInt(info.Size(), 10))
	if err := s.reply(req, resp); err != nil {
		s.finish(err)
		return
	}
	i := tr.begin(sendfileSpan, b.root, req)
	n, err := s.srv.ReadFrom(&io.LimitedReader{R: f, N: info.Size()})
	tr.end(i)
	s.sendBytes += n
	s.sendNs += tr.spans[i].End - tr.spans[i].Start
	if err != nil {
		s.finish(err)
		return
	}
	s.k++
	s.serveNext()
}

// reply renders the head into a leased buffer and writes head and body
// with one blocking writev, as the goroutine path's sendBuffers does.
func (s *session) reply(req int64, resp *httpproto.Response) error {
	tr, root := &s.tr, s.cur.root
	i := tr.begin(bufpoolSpan, root, req)
	lease := bufpool.Get(headLease)
	tr.end(i)
	i = tr.begin(renderSpan, root, req)
	head := httpproto.AppendResponseHead(lease.Bytes()[:0], resp)
	tr.end(i)
	bufs := net.Buffers{head}
	if len(resp.Body) > 0 {
		bufs = append(bufs, resp.Body)
	}
	i = tr.begin(writevSpan, root, req)
	_, err := bufs.WriteTo(s.srv)
	tr.end(i)
	i = tr.begin(bufpoolSpan, root, req)
	lease.Release()
	tr.end(i)
	return err
}

// replayStats is what the replay measured besides span times.
type replayStats struct {
	requests  int64
	spans     []span
	cache     cache.Stats
	diskReads uint64
	sendBytes int64
	sendNs    int64
}

// runReplay warms the replayed layers for warmup, then replays for at
// most measure or maxReq requests with spans recorded.
func runReplay(wl *workload, d *docroot, root string, largeFile, seed int64, t0 time.Time,
	measure time.Duration, maxReq int64) (replayStats, error) {
	var st replayStats
	r, err := newReplay(wl, d, root, largeFile, t0)
	if err != nil {
		return st, err
	}
	defer r.close()
	ss := make([]*session, conns)
	for i := range ss {
		if ss[i], err = r.newSession(i, seed); err != nil {
			for _, s := range ss[:i] {
				s.close()
			}
			return st, err
		}
	}
	defer func() {
		for _, s := range ss {
			s.close()
		}
	}()

	var req atomic.Int64
	phase := func(until time.Time, limit int64) error {
		var wg sync.WaitGroup
		errs := make([]error, len(ss))
		for i, s := range ss {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(until) && (limit == 0 || req.Load() < limit) {
					id := req.Add(int64(wl.window)) - int64(wl.window) + 1
					if err := s.batch(id); err != nil {
						errs[i] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if err := phase(time.Now().Add(warmup), 0); err != nil {
		return st, fmt.Errorf("replay warm-up: %w", err)
	}
	// The measured phase starts on fresh connections, as a slice does, so
	// every workload's spans include connection set-up.
	for _, s := range ss {
		if s.c != nil {
			s.hangUp(0, 0)
		}
		s.tr.spans = s.tr.spans[:0]
		s.requests, s.sendBytes, s.sendNs = 0, 0, 0
	}
	r.fc.ResetStats()
	disk0 := r.svc.DiskReads()
	req.Store(0)
	if err := phase(time.Now().Add(measure), maxReq); err != nil {
		return st, fmt.Errorf("replay: %w", err)
	}
	st.cache = r.fc.Stats()
	st.diskReads = r.svc.DiskReads() - disk0
	for _, s := range ss {
		st.requests += s.requests
		st.spans = append(st.spans, s.tr.spans...)
		st.sendBytes += s.sendBytes
		st.sendNs += s.sendNs
	}
	return st, nil
}

// traceResult is a traced run's per-layer metrics.
type traceResult struct {
	metrics map[string]metric
	names   []string
}

func (t *traceResult) set(name, unit string, v float64) {
	t.metrics[name] = metric{v, unit}
	t.names = append(t.names, name)
}

// replayRequests caps the traced replay; per-request means settle well
// before it, and it bounds the span file.
const replayRequests = 5000

// traceRun runs an untraced and a traced slice against the real server,
// each for measure, and the in-driver replay for at most measure or
// maxReq requests; it fills r.trace with the per-layer metrics and writes
// the span file and the results file.
func traceRun(cfg config, r *run, measure time.Duration, maxReq int64) error {
	largeFile, err := largeFileThreshold(cfg.bin)
	if err != nil {
		return err
	}
	plain, err := runSlice(cfg, r, measure, false)
	if err != nil {
		return fmt.Errorf("untraced slice: %w", err)
	}
	r.add(plain)
	traced, err := runSlice(cfg, r, measure, true)
	if err != nil {
		return fmt.Errorf("traced slice: %w", err)
	}
	r.add(traced)
	rp, err := runReplay(r.wl, r.doc, r.root, largeFile, r.seed, traced.t0, measure, maxReq)
	r.attempted += rp.requests
	if err != nil {
		r.failed++
		r.err = err
		return err
	}

	// client.rtt: one span per measured batch of the traced slice.
	id := int64(1 << 40) // apart from the replay's ids
	var rtt []span
	var rttSum int64
	for _, pairs := range traced.rtt {
		for k := 0; k+1 < len(pairs); k += 2 {
			id++
			rtt = append(rtt, span{Name: rttSpan, ID: id, Start: pairs[k], End: pairs[k+1]})
			rttSum += pairs[k+1] - pairs[k]
		}
	}
	self, err := selfTimes(rp.spans)
	if err != nil {
		return err
	}
	n := float64(rp.requests)
	perReq := func(name string) float64 { return float64(self[name]) / n / 1e3 }
	rttUS := float64(rttSum) / float64(len(rtt)) / float64(r.wl.window) / 1e3
	explained := 0.0
	for _, name := range layerSpans {
		explained += perReq(name)
	}
	sendMBps := 0.0
	if rp.sendNs > 0 {
		sendMBps = float64(rp.sendBytes) / (float64(rp.sendNs) / 1e9) / 1e6
	}

	t := &traceResult{metrics: make(map[string]metric)}
	t.set("client.rtt_us", "us", rttUS)
	t.set("budget.unexplained_us", "us", rttUS-explained)
	t.set("trace.overhead_frac", "1", 1-ratioOf(traced)/ratioOf(plain))
	t.set("nserver.read_syscalls_per_req", "count", plain.ReadSyscalls)
	t.set("nserver.write_syscalls_per_req", "count", plain.WriteSyscalls)
	t.set("nserver.ctx_switches_per_req", "count", plain.CtxSwitches)
	t.set("nserver.read_us", "us", perReq(readSpan))
	t.set("reactor.dispatch_us", "us", perReq(dispatchSpan))
	t.set("eventproc.hop_us", "us", perReq(hopSpan))
	t.set("reactor.register_us", "us", perReq(registerSpan))
	t.set("httpproto.decode_us", "us", perReq(decodeSpan))
	t.set("httpproto.render_us", "us", perReq(renderSpan))
	t.set("bufpool.get_release_ns", "ns", perReq(bufpoolSpan)*1e3)
	t.set("respcache.update_us", "us", perReq(respcacheSpan))
	t.set("cache.get_us", "us", perReq(cacheSpan))
	t.set("cache.hit_ratio", "1", rp.cache.HitRate())
	t.set("cache.evictions_per_req", "count", float64(rp.cache.Evictions)/n)
	t.set("aio.stat_us", "us", perReq(statSpan))
	t.set("aio.read_us", "us", perReq(aioReadSpan))
	t.set("aio.open_us", "us", perReq(openSpan))
	t.set("aio.disk_reads_per_req", "count", float64(rp.diskReads)/n)
	t.set("nserver.writev_us", "us", perReq(writevSpan))
	t.set("net.sendfile_MBps", "MB/s", sendMBps)
	r.trace = t

	path := filepath.Join(cfg.out, "trace", r.wl.name+".jsonl")
	if err := writeSpans(path, rtt, rp.spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nsbench: %s: %d replayed requests, %d spans written to %s\n",
		r.wl.name, rp.requests, len(rtt)+len(rp.spans), path)
	return r.save(cfg, "-trace", map[string]any{"replayed_requests": rp.requests, "spans": path})
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, sets ...[]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, set := range sets {
		for i := range set {
			if err := enc.Encode(&set[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ratioOf is a slice's throughput ratio, aggregated as a run's is.
func ratioOf(s sliceResult) float64 {
	return trimmedMean(append([]float64(nil), s.ThroughputRatio...), trim)
}
