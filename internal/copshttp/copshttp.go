// Package copshttp is COPS-HTTP: the paper's high-performance static Web
// server built on the N-Server framework. It corresponds to the 785 NCSS
// of "other application code" in Table 4 — everything else (concurrency,
// dispatch, caching, overload control) comes from the framework, and the
// request grammar comes from internal/httpproto.
//
// The server handles static page requests: GET and HEAD with HTTP/1.0-1.1
// persistent connections. File content is fetched through the framework's
// emulated asynchronous file I/O (asynchronous completion events, per
// COPS-HTTP's O4 setting) and cached under the configured replacement
// policy (LRU in the paper's experiments).
package copshttp

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/httpproto"
	"repro/internal/logging"
	"repro/internal/nserver"
	"repro/internal/options"
	"repro/internal/profiling"
	"repro/internal/respcache"
)

// Config configures a COPS-HTTP server.
type Config struct {
	// DocRoot is the directory served. Required.
	DocRoot string
	// Options is the template option assignment; zero value means the
	// paper's COPS-HTTP preset (options.COPSHTTP()).
	Options *options.Options
	// Priority assigns connection priorities when O8 is on (the ISP
	// experiment's 13-line hook classifies by client IP).
	Priority nserver.PriorityFunc
	// IndexFile is served for directory requests. Default "index.html".
	IndexFile string
	// DecodeDelay, when positive, burns the configured duration in the
	// Decode Request step — the paper's third experiment makes the
	// workload CPU-bound by sleeping 50ms while decoding. A delayed
	// server installs no fast path, so the burn lands on the Event
	// Processor workers, where overload control can see it.
	DecodeDelay time.Duration
	// AccessLog receives one record per completed request when the
	// logging option (O12) is selected in Options.
	AccessLog *logging.Logger
	// ShedOnOverload switches option O9's behavior from postponing to
	// load shedding: while the overload gate is paused (or the MaxConns
	// bound is hit), new connections are accepted and answered with a
	// prebuilt "503 Service Unavailable" carrying a Retry-After header —
	// served from pooled buffers, bounded by the write timeout — instead
	// of queueing in the listen backlog. Saturation then surfaces to
	// clients as a fast explicit refusal they can back off from.
	ShedOnOverload bool
	// RetryAfter is the Retry-After delay stamped on shed 503 replies
	// (rounded up to whole seconds). Zero means 1 second. While the O9
	// admission limiter is engaged, shed replies derive Retry-After from
	// its live backoff horizon instead; this value covers sheds while
	// the limit is wide open (watermark backstop or MaxConnections).
	RetryAfter time.Duration
	// ShedPriority classifies a raw connection for the O9 admission
	// limiter's priority-aware shedding: it maps
	// the transport to an O8 priority level before any request has been
	// read — so from transport facts such as the peer address — and
	// level-0 connections keep flowing while lower priorities shed. Nil
	// marks every connection fully sheddable.
	ShedPriority func(net.Conn) events.Priority
	// Codec overrides the wire codec (the Decode Request / Encode Reply
	// hooks); nil means the httpproto codec. The model-based conformance
	// harness (internal/model) injects historical parser behavior here to
	// replay fixed wire bugs against an otherwise identical server.
	Codec nserver.Codec
}

// Server is a running COPS-HTTP instance.
type Server struct {
	ns      *nserver.Server
	docroot string
	// rootPrefix is docroot plus a trailing separator: every resolved
	// path below the root starts with it.
	rootPrefix string
	indexFile  string
	// retryAfter is the precomputed Retry-After header value for shed
	// 503s; shedTimeout bounds the write of a shed reply.
	retryAfter  string
	shedTimeout time.Duration
	shedCount   atomic.Uint64
	// largeFile is the streaming threshold: files of at least this many
	// bytes skip the cache/read hop and stream from an open descriptor.
	// 0 disables the large-file path.
	largeFile int64
	// rcache is the rendered-response cache (nil when no file-cache
	// policy is selected): pre-encoded head+body pairs for cacheable GETs.
	// It backs the run-to-completion fast path (FastServe), and its
	// (modTime, size) metadata lets a fresh stat detect and drop stale
	// file-cache bytes, so a mutated file is never served from the old
	// cached revision past the revalidate window.
	rcache *respcache.Cache
}

// connState carries one in-flight request through the asynchronous stat
// and read hops (the Asynchronous Completion Token's state).
type connState struct {
	conn *nserver.Conn
	req  *httpproto.Request
	// slot is this request's reply position, reserved in Handle, so
	// pipelined responses leave in request order.
	slot nserver.Slot
	// full is the resolved filesystem path being served.
	full string
	// modTime and size are the file's metadata from the stat hop.
	modTime time.Time
	size    int64
	// ranged records a satisfiable single byte range parsed from the
	// request; the serve hop turns it into a 206.
	ranged bool
	rng    httpproto.ByteRange
}

// New assembles a COPS-HTTP server.
func New(cfg Config) (*Server, error) {
	if cfg.DocRoot == "" {
		return nil, errors.New("copshttp: DocRoot required")
	}
	root, err := filepath.Abs(cfg.DocRoot)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(root); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("copshttp: DocRoot %q is not a directory", root)
	}
	opts := options.COPSHTTP()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	idx := cfg.IndexFile
	if idx == "" {
		idx = "index.html"
	}
	s := &Server{docroot: root, rootPrefix: root + string(filepath.Separator), indexFile: idx,
		largeFile: opts.LargeFileThreshold}
	s.retryAfter = strconv.FormatInt(ceilSeconds(cfg.RetryAfter), 10)
	s.shedTimeout = opts.WriteTimeout
	if s.shedTimeout <= 0 {
		s.shedTimeout = time.Second
	}
	var shed func(net.Conn)
	if cfg.ShedOnOverload {
		shed = s.shed
	}
	// The rendered-response cache exists whenever the file cache does: its
	// stat-confirmation metadata fixes the stale-cached-bytes window, and
	// it is the fast path's lookup table. Without a file cache every read
	// hits disk fresh, so there is nothing to confirm and nothing worth
	// pre-rendering.
	var onRemove func(string)
	if opts.Cache != options.NoCache {
		s.rcache = respcache.New(runtime.GOMAXPROCS(0), 0)
		onRemove = s.rcache.Invalidate
	}

	var codec nserver.Codec = httpproto.Codec{}
	if cfg.Codec != nil {
		codec = cfg.Codec
	}
	if cfg.DecodeDelay > 0 {
		codec = delayCodec{inner: codec, delay: cfg.DecodeDelay}
	}
	nscfg := nserver.Config{
		Options:       opts,
		App:           nserver.AppFuncs{Request: s.handle},
		Codec:         codec,
		Priority:      cfg.Priority,
		Logger:        cfg.AccessLog,
		Shed:          shed,
		ShedPriority:  cfg.ShedPriority,
		CacheOnRemove: onRemove,
	}
	if s.rcache != nil && cfg.DecodeDelay == 0 {
		// With the hook installed, requests decode on whichever goroutine
		// woke the connection. A CPU-bound decode must keep burning on the
		// Event Processor workers instead: the third experiment's overload
		// comes from there.
		nscfg.FastPath = s.FastServe
	}
	ns, err := nserver.New(nscfg)
	if err != nil {
		return nil, err
	}
	s.ns = ns
	return s, nil
}

// Framework returns the underlying N-Server (profiling, cache, shutdown).
func (s *Server) Framework() *nserver.Server { return s.ns }

// RespCache returns the rendered-response cache backing the
// run-to-completion fast path (nil when no file-cache policy is
// selected). Metrics endpoints scrape its counters.
func (s *Server) RespCache() *respcache.Cache { return s.rcache }

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error { return s.ns.ListenAndServe(addr) }

// Shutdown stops the server.
func (s *Server) Shutdown() { s.ns.Shutdown() }

// Addr returns the bound address once serving.
func (s *Server) Addr() string {
	if a := s.ns.Addr(); a != nil {
		return a.String()
	}
	return ""
}

// Shed returns how many connections were answered with the load-shedding
// 503 fast path since the server started.
func (s *Server) Shed() uint64 { return s.shedCount.Load() }

// ceilSeconds renders a Retry-After delay as whole seconds, rounding up
// and clamping to at least 1: RFC 9110's Retry-After takes non-negative
// integer seconds, and a shed reply advertising "Retry-After: 0" would
// invite an immediate retry storm — exactly what shedding exists to
// damp. Zero and negative delays take the 1-second default.
func ceilSeconds(d time.Duration) int64 {
	if d <= 0 {
		return 1
	}
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// shed is the load-shedding fast path run for connections accepted while
// the overload gate is paused. It bypasses the five-step pipeline
// entirely: a pooled Response carrying the shared prebuilt 503 page and a
// Retry-After header is rendered into a pooled head buffer and written
// with one writev, bounded by the write timeout, then the connection is
// closed (see linger). Nothing here allocates per shed beyond the
// kernel's accept and the closing goroutine, except while the admission
// limiter is engaged: the Retry-After value is then derived from its live
// backoff horizon (longer overloads advertise longer backoffs), costing
// one small header-value render.
func (s *Server) shed(conn net.Conn) {
	s.shedCount.Add(1)
	_ = conn.SetWriteDeadline(time.Now().Add(s.shedTimeout))
	ra := s.retryAfter
	if l := s.ns.Admission(); l != nil && l.Engaged() {
		ra = strconv.FormatInt(ceilSeconds(l.RetryAfter()), 10)
	}
	resp := httpproto.AcquireResponse()
	resp.Status = 503
	resp.Close = true
	resp.Body = httpproto.ErrorPage(503)
	resp.Headers.Set("Content-Type", "text/html")
	resp.Headers.Set("Retry-After", ra)
	n, _ := httpproto.WriteResponse(conn, resp)
	// The shed reply bypasses Conn.Send, so it must count its own egress
	// for the O11 byte totals (every egress path counts exactly once).
	// Sheds happen before a Communicator (and shard) exists, so they
	// land on the group's global profile.
	s.ns.Profile().Global().Add(profiling.BytesSent, int(n))
	httpproto.ReleaseResponse(resp)
	go s.linger(conn)
}

// linger closes a shed connection without resetting it. Closing a socket
// with the client's request still unread makes the kernel answer with a
// reset, which can destroy the 503 before the client reads it; so the
// write side is half-closed first, putting a FIN behind the reply, and
// the request is read and discarded until the client closes its side or
// shedTimeout passes. A transport without half-close closes at once. It
// runs on its own goroutine because the acceptor sheds inline.
func (s *Server) linger(conn net.Conn) {
	if cw, ok := conn.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		_ = conn.SetReadDeadline(time.Now().Add(s.shedTimeout))
		_, _ = io.Copy(io.Discard, conn)
	}
	_ = conn.Close()
}

// handle is the Handle Request hook: validate, resolve the path under the
// document root, then run the event-driven file pipeline — an
// asynchronous stat hop (directory resolution and If-Modified-Since),
// then an asynchronous read hop — and reply from the completions.
func (s *Server) handle(c *nserver.Conn, req any) {
	r, ok := req.(*httpproto.Request)
	if !ok {
		_ = c.Reply(httpproto.ErrorResponse(500, true))
		c.Close()
		return
	}
	// Reserve this request's reply position before any asynchronous hop:
	// the framework serializes Handle per connection, so positions are in
	// request order, and every reply path below fills this one — a
	// synchronous 405 computed for request N+1 cannot overtake request
	// N's file completion on a pipelined connection.
	slot := c.Reserve()
	if r.Refuse != 0 {
		// The parser answered but could not frame the body (unsupported
		// Transfer-Encoding): reply with the refusal status and close —
		// the rest of the stream is poisoned.
		s.errorReply(slot, r, r.Refuse, true)
		return
	}
	if r.Method != "GET" && r.Method != "HEAD" {
		s.errorReply(slot, r, 405, !r.KeepAlive())
		return
	}
	full, err := s.resolve(r.Path)
	if err != nil {
		s.errorReply(slot, r, 403, !r.KeepAlive())
		return
	}
	st := &connState{conn: c, req: r, slot: slot, full: full}
	if _, err := s.ns.AIO().Stat(full, st, c.Priority(), s.statDone); err != nil {
		s.errorReply(slot, r, 503, true)
	}
}

// FastServe is the FastPath hook New installs; it is exported only so
// allocation tests can drive it on an idle connection. The runtime calls
// it inline, on the connection's reader goroutine, for each request
// decoded while the O9 gate is clear. It serves exactly the shape the
// rendered-response cache holds — a keep-alive HTTP/1.1 GET for a
// static path, no Range, no conditional. Its reply is a plain send, so
// it queues behind the reply position of any predecessor still in the
// stat/read hops. Everything else is declined untouched and takes the
// queued path, which keeps admission control observing every queue wait
// the fast path did not elide. A served request is recycled
// (httpproto.ReleaseRequest): the hook owns what it consumes.
func (s *Server) FastServe(c *nserver.Conn, req any) bool {
	r, ok := req.(*httpproto.Request)
	if !ok || r.Refuse != 0 || r.Method != "GET" || r.Proto != "HTTP/1.1" || !r.KeepAlive() {
		return false
	}
	if r.Headers.Get("Range") != "" || r.Headers.Get("If-Modified-Since") != "" {
		return false
	}
	// Path resolution allocates (filepath.Join) and a cold probe locks a
	// shard; the per-connection memo makes repeat requests for the same
	// document — the hot-URL shape the fast path exists for — cost
	// neither.
	m := memoOf(c)
	full := m.full
	if r.Path != m.path {
		var err error
		if full, err = s.resolve(r.Path); err != nil {
			return false
		}
		m.path, m.full = r.Path, full
	}
	// Within the runtime's fast decode pass c.Now is the pass's one clock
	// reading, shared by every request of a pipelined window.
	head, body, state := s.rcache.Probe(full, &m.ref, c.Now())
	if state == respcache.Stale {
		head, body = s.revalidate(full)
	}
	if head == nil {
		return false
	}
	rid := c.BeginRequest()
	// The head is a published image, immutable, so it goes by reference.
	_ = c.SendBuffers(head, body)
	s.logAccess(c, r, 200, len(body), rid)
	httpproto.ReleaseRequest(r)
	return true
}

// pathMemo caches a connection's last fast-path resolution (request path
// → filesystem path) and the rendered entry it last probed. Only
// FastServe touches it, on the goroutine that owns the connection's
// pipeline.
type pathMemo struct {
	path, full string
	ref        respcache.Ref
}

// memoOf returns the connection's path memo, creating it on the first
// fast-served request (one allocation per connection).
func memoOf(c *nserver.Conn) *pathMemo {
	if m, ok := c.UserData().(*pathMemo); ok {
		return m
	}
	m := &pathMemo{}
	c.SetUserData(m)
	return m
}

// revalidate is the fast path's own stat of a rendered entry past its
// revalidate window, so a warm document costs one stat(2) per window on
// the connection's reader goroutine instead of the queued stat and read
// hops. It returns the confirmed entry's head and body, or nil to
// decline — after dropping
// what the stat proved outdated, so the queued path re-stats, re-reads
// and answers (200 with the new bytes, 404, or 301).
func (s *Server) revalidate(full string) (head, body []byte) {
	fc := s.ns.Cache()
	info, err := os.Stat(full)
	if err != nil || !info.Mode().IsRegular() {
		// Deleted, or no longer a regular file: the entry can never be
		// confirmed again, so drop it instead of counting it stale forever.
		s.rcache.Invalidate(full)
		fc.Remove(full)
		return nil, nil
	}
	// Touch the file-cache entry: fast-path hits never do, and the queued
	// read hop this replaces was what kept LRU recency for the files the
	// fast path serves. Without it eviction picks the hottest files.
	if _, ok := fc.Get(full); !ok {
		return nil, nil
	}
	return s.confirm(full, info, true)
}

// errorReply sends a canned error page.
func (s *Server) errorReply(slot nserver.Slot, r *httpproto.Request, status int, close bool) {
	resp := httpproto.AcquireResponse()
	resp.Status = status
	resp.Close = close
	s.pageReply(slot, r, resp)
}

// pageReply sends resp, whose status and other headers are set, with the
// canned page for its status, and releases it. A HEAD reply strips the
// page but keeps the Content-Length a GET would have carried, so the two
// methods are wire-identical up to the body (RFC 9110 §9.3.2).
func (s *Server) pageReply(slot nserver.Slot, r *httpproto.Request, resp *httpproto.Response) {
	page := httpproto.ErrorPage(resp.Status)
	resp.Headers.Set("Content-Type", "text/html")
	if r.Method == "HEAD" {
		resp.Headers.Set("Content-Length", strconv.Itoa(len(page)))
	} else {
		resp.Body = page
	}
	s.reply(slot, r, resp)
	httpproto.ReleaseResponse(resp)
}

// fileError answers a request whose stat, read or open failed: 403 when
// permission was denied, 404 otherwise.
func (s *Server) fileError(st *connState, err error) {
	status := 404
	if errors.Is(err, fs.ErrPermission) {
		status = 403
	}
	s.errorReply(st.slot, st.req, status, !st.req.KeepAlive())
}

// redirectDir answers a directory request that lacks its trailing slash
// with a 301 to the slash form (the usual static-server semantics, so
// relative links inside the index page resolve). The Location echoes the
// raw request target — query string stripped, never the decoded path, so
// percent-escapes survive and no decoded byte can reach the header.
func (s *Server) redirectDir(st *connState) {
	r := st.req
	loc, _, _ := strings.Cut(r.Target, "?")
	resp := httpproto.AcquireResponse()
	resp.Status = 301
	resp.Close = !r.KeepAlive()
	resp.Headers.Set("Location", loc+"/")
	s.pageReply(st.slot, r, resp)
}

// statDone is the completion handler of the stat hop: it redirects bare
// directory requests to their slash form, answers conditional requests
// with 304, evaluates the Range header against the now-known size, and
// otherwise issues the serve hop — a buffered read through the cache, or
// a descriptor open for files at or above the large-file threshold.
func (s *Server) statDone(tok events.Token, info os.FileInfo, err error) {
	st := tok.State.(*connState)
	c, r := st.conn, st.req
	if err != nil {
		s.fileError(st, err)
		return
	}
	if info.IsDir() {
		// A trailing-slash path already resolved to the index file, so a
		// directory here means the slash is missing.
		s.redirectDir(st)
		return
	}
	st.modTime = info.ModTime()
	st.size = info.Size()
	if s.rcache != nil {
		s.confirm(st.full, info, false)
	}
	// If-Modified-Since wins over Range: a 304 carries no representation,
	// so there is nothing for the range to select from (RFC 9110 §13.2.2
	// evaluation order).
	if httpproto.NotModifiedSince(r.Headers.Get("If-Modified-Since"), st.modTime) {
		resp := httpproto.AcquireResponse()
		resp.Status = 304
		resp.Headers.Set("Last-Modified", httpproto.FormatHTTPDateCached(st.modTime))
		resp.Close = !r.KeepAlive()
		s.reply(st.slot, r, resp)
		httpproto.ReleaseResponse(resp)
		return
	}
	if raw := r.Headers.Get("Range"); raw != "" {
		rng, rerr := httpproto.ParseRange(raw, st.size)
		switch {
		case rerr == nil:
			st.ranged, st.rng = true, rng
		case errors.Is(rerr, httpproto.ErrRangeUnsatisfiable):
			// 416 settles here, before any file I/O is queued.
			c.Profile().Add(profiling.Responses416, 1)
			resp := httpproto.AcquireResponse()
			resp.Status = 416
			resp.Close = !r.KeepAlive()
			resp.Headers.Set("Content-Range", httpproto.ContentRangeUnsatisfiable(st.size))
			s.pageReply(st.slot, r, resp)
			return
		default:
			// Multi-range, foreign units, malformed specs: ignore the
			// header and serve the full representation (RFC 9110 §14.2).
		}
	}
	if s.largeFile > 0 && st.size >= s.largeFile {
		if _, err := s.ns.AIO().Open(st.full, st, c.Priority(), s.openDone); err != nil {
			s.errorReply(st.slot, r, 503, true)
		}
		return
	}
	if _, err := s.ns.AIO().ReadFile(st.full, st, c.Priority(), s.fileDone); err != nil {
		s.errorReply(st.slot, r, 503, true)
	}
}

// confirm reconciles the rendered entry for full with a fresh stat: the
// stat hop's, or the fast path's inline one (serve), which also gets the
// confirmed entry's head and body back to send. A match restarts the
// entry's revalidate window. A mismatch proves the cached revision
// outdated: respcache drops the rendered entry, and the file-cache bytes
// it was built from are dropped here — so the next read hop re-reads the
// file instead of serving the old revision under a fresh Last-Modified.
func (s *Server) confirm(full string, info os.FileInfo, serve bool) (head, body []byte) {
	var dropped bool
	if serve {
		head, body, dropped = s.rcache.Revalidate(full, info.ModTime(), info.Size())
	} else {
		dropped = s.rcache.Confirm(full, info.ModTime(), info.Size())
	}
	if dropped {
		// The rendered-response cache exists only beside a file cache.
		s.ns.Cache().Remove(full)
	}
	return head, body
}

// fileDone is the Completion Handler: it runs when the emulated
// asynchronous read finishes (on the reactive pool for asynchronous
// completions) and performs the Encode Reply / Send Reply steps.
func (s *Server) fileDone(tok events.Token, data []byte, err error) {
	st := tok.State.(*connState)
	c, r := st.conn, st.req
	if err != nil {
		s.fileError(st, err)
		return
	}
	// The cached-file fast path: a pooled Response carries the cache's
	// shared bytes straight to the writev send, so serving a hit performs
	// no per-request allocation beyond the framework's fixed costs
	// (TestHotPathAllocs pins this).
	resp := httpproto.AcquireResponse()
	resp.Status = 200
	resp.Headers.Set("Content-Type", httpproto.MimeType(st.full))
	resp.Headers.Set("Accept-Ranges", "bytes")
	body := data
	// The range was validated against the stat size; re-check against the
	// bytes actually read (the file may have changed in between, or the
	// cache may hold an older revision) and fall back to the full body if
	// the slice no longer fits.
	if st.ranged && st.rng.Start+st.rng.Length <= int64(len(data)) {
		resp.Status = 206
		resp.Headers.Set("Content-Range", httpproto.ContentRange(st.rng, int64(len(data))))
		body = data[st.rng.Start : st.rng.Start+st.rng.Length]
		c.Profile().Add(profiling.Responses206, 1)
	}
	resp.Body = body
	if !st.modTime.IsZero() {
		resp.Headers.Set("Last-Modified", httpproto.FormatHTTPDateCached(st.modTime))
	}
	// Populate the rendered-response cache for the cacheable shape the
	// fast path serves: a plain 200 to a keep-alive HTTP/1.1 GET. The
	// head is rendered once here, on the miss path; the stored (modTime,
	// size) pair came from the same stat hop that just Confirmed (or
	// seeded) this revision, so a later stat catches any divergence.
	if s.rcache != nil && resp.Status == 200 && r.Method == "GET" &&
		r.Proto == "HTTP/1.1" && r.KeepAlive() && !st.modTime.IsZero() {
		resp.Proto = r.Proto
		s.rcache.Store(st.full, httpproto.AppendResponseHead(nil, resp), body, st.modTime, st.size)
	}
	if r.Method == "HEAD" {
		resp.Headers.Set("Content-Length", strconv.Itoa(len(body)))
		resp.Body = nil
	}
	resp.Close = !r.KeepAlive()
	s.reply(st.slot, r, resp)
	httpproto.ReleaseResponse(resp)
}

// openDone is the large-file Completion Handler: it receives the open
// descriptor from the File Open Event and fills the request's reply
// position with the streamed body — sendfile(2) on Linux TCP transports,
// pooled copy elsewhere — without ever holding the file in memory. The
// descriptor is owned here and closed once the position is filled: a
// reply that must wait its turn streams from the runtime's own dup.
func (s *Server) openDone(tok events.Token, f *os.File, info os.FileInfo, err error) {
	st := tok.State.(*connState)
	c, r := st.conn, st.req
	if err != nil {
		s.fileError(st, err)
		return
	}
	// Serve what is open now: the stat hop's size may be stale, and the
	// advertised Content-Length must match the descriptor being streamed.
	size := info.Size()
	offset, length := int64(0), size
	resp := httpproto.AcquireResponse()
	resp.Status = 200
	resp.Proto = r.Proto
	resp.Close = !r.KeepAlive()
	resp.Headers.Set("Content-Type", httpproto.MimeType(st.full))
	resp.Headers.Set("Accept-Ranges", "bytes")
	if !st.modTime.IsZero() {
		resp.Headers.Set("Last-Modified", httpproto.FormatHTTPDateCached(st.modTime))
	}
	if st.ranged && st.rng.Start+st.rng.Length <= size {
		resp.Status = 206
		resp.Headers.Set("Content-Range", httpproto.ContentRange(st.rng, size))
		offset, length = st.rng.Start, st.rng.Length
		c.Profile().Add(profiling.Responses206, 1)
	}
	// The codec sees no in-memory body, so the streamed length must be
	// advertised explicitly.
	resp.Headers.Set("Content-Length", strconv.FormatInt(length, 10))
	if r.Method == "HEAD" {
		s.reply(st.slot, r, resp)
	} else {
		_ = st.slot.Last(resp.Close).ReplyFile(resp, f, offset, length)
		s.logAccess(c, r, resp.Status, int(length), st.slot.Seq())
	}
	f.Close()
	httpproto.ReleaseResponse(resp)
}

// reply fills the request's reply position with resp and writes its O12
// access-log record. A Connection: close reply is the connection's last:
// the runtime closes once it is on the wire.
func (s *Server) reply(slot nserver.Slot, r *httpproto.Request, resp *httpproto.Response) {
	resp.Proto = r.Proto
	_ = slot.Last(resp.Close).Reply(resp)
	s.logAccess(slot.Conn(), r, resp.Status, len(resp.Body), slot.Seq())
}

// logAccess writes the O12 access-log record (common-log-style plus the
// trace ID of request ordinal rid, so a sampled "trace id=..." line and
// its access-log record can be joined). The ID is formatted only when a
// logger exists: with logging off a reply costs no formatting.
func (s *Server) logAccess(c *nserver.Conn, r *httpproto.Request, status, bytes int, rid uint64) {
	if lg := s.ns.Logger(); lg != nil {
		lg.Infof("%s \"%s %s %s\" %d %d id=%s",
			c.RemoteAddr(), r.Method, r.Target, r.Proto, status, bytes, nserver.FormatRequestID(c.ID(), rid))
	}
}

// resolve maps a request path, already cleaned by the codec
// (httpproto.CleanPath), to a file under the document root. Directory
// resolution happens in the asynchronous stat hop, so no blocking
// filesystem call occurs here.
func (s *Server) resolve(reqPath string) (string, error) {
	p := reqPath
	if strings.HasSuffix(p, "/") {
		p += s.indexFile
	}
	full := filepath.Join(s.docroot, filepath.FromSlash(p))
	// Join cleans what is left, so a path from a codec that does not
	// clean cannot escape the root either; keep the invariant explicit.
	if full != s.docroot && !strings.HasPrefix(full, s.rootPrefix) {
		return "", errors.New("copshttp: path escapes document root")
	}
	return full, nil
}

// delayCodec wraps a codec with the CPU-burn of the overload experiment.
type delayCodec struct {
	inner nserver.Codec
	delay time.Duration
}

// Decode sleeps for the configured delay before decoding, making request
// decoding CPU-bound as in the paper's third experiment.
func (d delayCodec) Decode(buf []byte) (any, int, error) {
	req, n, err := d.inner.Decode(buf)
	if req != nil {
		time.Sleep(d.delay)
	}
	return req, n, err
}

// Encode delegates to the wrapped codec.
func (d delayCodec) Encode(reply any) ([]byte, error) { return d.inner.Encode(reply) }

// AppendHead preserves the inner codec's zero-copy path (the delay applies
// only to decoding).
func (d delayCodec) AppendHead(dst []byte, reply any) (head, body []byte, err error) {
	if be, ok := d.inner.(nserver.BufferEncoder); ok {
		return be.AppendHead(dst, reply)
	}
	data, err := d.inner.Encode(reply)
	if err != nil {
		return nil, nil, err
	}
	return dst, data, nil
}
