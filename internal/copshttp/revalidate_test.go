package copshttp

import (
	"bufio"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/respcache"
)

// pastWindow outlasts the rendered-response cache's revalidate window, so
// the next lookup of an entry finds it stale.
const pastWindow = respcache.DefaultRevalidateAfter + 50*time.Millisecond

// hotConn dials s and warms the rendered-response cache for path on the
// queued path.
func hotConn(t *testing.T, s *Server, path, want string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	if status, _, body := get(t, conn, r, "GET", path, ""); status != 200 || string(body) != want {
		t.Fatalf("warm-up GET %s: %d %q", path, status, body)
	}
	return conn, r
}

// directDispatched reads the fast-path serve counter.
func directDispatched(s *Server) uint64 {
	return s.Framework().Profile().Snapshot().DirectDispatched
}

// awaitDirectDispatched waits for the fast-path counter to reach want:
// the runtime counts a fast serve after its reply is written, so the
// client can read the reply first.
func awaitDirectDispatched(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for directDispatched(s) < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := directDispatched(s); got != want {
		t.Fatalf("DirectDispatched = %d, want %d (respcache %+v)", got, want, s.RespCache().Stats())
	}
}

// TestStaleEntryRevalidatedInline: an unchanged file past the revalidate
// window is confirmed by one stat on the connection's reader goroutine
// and served inline, not punted through the queued stat and read hops.
func TestStaleEntryRevalidatedInline(t *testing.T) {
	s := startHTTP(t, Config{DocRoot: buildDocRoot(t), Options: ddOptions()})
	conn, r := hotConn(t, s, "/about.txt", "about text")
	before := directDispatched(s)
	time.Sleep(pastWindow)
	status, headers, body := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(body) != "about text" || headers["last-modified"] == "" {
		t.Fatalf("stale GET: %d %q %v", status, body, headers)
	}
	rs := s.RespCache().Stats()
	awaitDirectDispatched(t, s, before+1)
	if rs.Stale != 1 || rs.Revalidated != 1 {
		t.Fatalf("respcache stats %+v, want one stale lookup revalidated inline", rs)
	}
}

// TestStaleEntryMutatedServesNewRevision: a file mutated past the window
// fails the inline stat's Confirm, so the entry and its file-cache bytes
// drop and the queued path serves the new bytes and Last-Modified; the
// entry it re-renders is then served inline on the same connection, and
// past the next window revalidates inline as the new revision.
func TestStaleEntryMutatedServesNewRevision(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root, Options: ddOptions()})
	conn, r := hotConn(t, s, "/about.txt", "about text")
	_, h1, _ := get(t, conn, r, "GET", "/about.txt", "")
	full := filepath.Join(root, "about.txt")
	if err := os.WriteFile(full, []byte("fresh content"), 0o644); err != nil {
		t.Fatal(err)
	}
	mt := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(full, mt, mt); err != nil {
		t.Fatal(err)
	}
	time.Sleep(pastWindow)
	status, h2, body := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(body) != "fresh content" {
		t.Fatalf("post-mutation GET: %d %q", status, body)
	}
	if h2["last-modified"] == h1["last-modified"] {
		t.Fatalf("Last-Modified did not change across mutation: %q", h2["last-modified"])
	}
	if rs := s.RespCache().Stats(); rs.Invalidations == 0 || rs.Revalidated != 0 {
		t.Fatalf("mutation: respcache stats %+v, want an invalidation and no inline serve", rs)
	}
	// The connection's memo still names the dropped entry: the next GET
	// looks the new revision up and is served inline.
	before := directDispatched(s)
	if status, _, body := get(t, conn, r, "GET", "/about.txt", ""); status != 200 || string(body) != "fresh content" {
		t.Fatalf("GET of the new revision inside its window: %d %q", status, body)
	}
	awaitDirectDispatched(t, s, before+1)
	before++
	time.Sleep(pastWindow)
	status, h3, body := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(body) != "fresh content" || h3["last-modified"] != h2["last-modified"] {
		t.Fatalf("revalidated GET of the new revision: %d %q %v", status, body, h3)
	}
	awaitDirectDispatched(t, s, before+1)
	if rs := s.RespCache().Stats(); rs.Revalidated != 1 {
		t.Fatalf("the new revision was not revalidated inline (stats %+v)", rs)
	}
}

// TestStaleEntryDeletedFileDrops: a deleted file past the window gets a
// 404, and the inline stat's failure drops both the rendered entry and
// the file-cache bytes instead of leaving an entry that counts stale on
// every later request.
func TestStaleEntryDeletedFileDrops(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root, Options: ddOptions()})
	conn, r := hotConn(t, s, "/about.txt", "about text")
	full := filepath.Join(root, "about.txt")
	if err := os.Remove(full); err != nil {
		t.Fatal(err)
	}
	time.Sleep(pastWindow)
	if status, _, _ := get(t, conn, r, "GET", "/about.txt", ""); status != 404 {
		t.Fatalf("GET of a deleted file: %d, want 404", status)
	}
	if rs := s.RespCache().Stats(); rs.Entries != 0 {
		t.Fatalf("rendered entry of a deleted file survived (stats %+v)", rs)
	}
	if s.Framework().Cache().Contains(full) {
		t.Fatal("file-cache bytes of a deleted file survived")
	}
}

// TestInlineRevalidationKeepsLRURecency: fast-path hits never touch the
// file cache, so the inline revalidation must, or LRU would evict the
// hottest files. A document served only by the fast path (and its inline
// revalidation) must survive an insert that evicts a colder one.
func TestInlineRevalidationKeepsLRURecency(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"hot.txt", "cold.txt", "new.txt"} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(strings.Repeat(name[:1], 1000)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	o := ddOptions()
	o.CacheCapacity = 2500 // room for two of the three files, in one shard
	s := startHTTP(t, Config{DocRoot: root, Options: o})
	conn, r := hotConn(t, s, "/hot.txt", strings.Repeat("h", 1000))
	// cold enters the file cache after hot, so it is the more recent.
	if status, _, _ := get(t, conn, r, "GET", "/cold.txt", ""); status != 200 {
		t.Fatalf("GET /cold.txt: %d", status)
	}
	for i := 0; i < 3; i++ {
		if status, _, _ := get(t, conn, r, "GET", "/hot.txt", ""); status != 200 {
			t.Fatalf("hot repeat: %d", status)
		}
	}
	time.Sleep(pastWindow)
	if status, _, _ := get(t, conn, r, "GET", "/hot.txt", ""); status != 200 {
		t.Fatalf("stale hot GET: %d", status)
	}
	if status, _, _ := get(t, conn, r, "GET", "/new.txt", ""); status != 200 {
		t.Fatalf("GET /new.txt: %d", status)
	}
	fc := s.Framework().Cache()
	if !fc.Contains(filepath.Join(root, "hot.txt")) || fc.Contains(filepath.Join(root, "cold.txt")) {
		t.Fatalf("LRU evicted the hot document: hot cached %v, cold cached %v",
			fc.Contains(filepath.Join(root, "hot.txt")), fc.Contains(filepath.Join(root, "cold.txt")))
	}
}
