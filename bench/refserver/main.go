// Command refserver is the reference server nsbench runs beside copshttp:
// a standard-library net/http server that serves a document tree the way
// copshttp's defaults do — small files from memory, files of at least
// 1 MiB by sendfile from a freshly opened descriptor. It imports the
// standard library only, so it stays the same while the repository's code
// changes, and its speed tracks the host's.
//
//	refserver <document root>
//
// The serving strategy follows copshttp's because the ratios nsbench
// reports cancel drift of the host only when both servers spend their
// time alike: a reference that opened and read every small file per
// request slowed far more than copshttp when the host's memory bandwidth
// was contended, and one that wrote a 16 MiB file from memory reacted
// differently from sendfile. Like copshttp, it listens on an ephemeral
// loopback port and prints a startup line naming it.
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// largeFile is the size from which a file is streamed rather than kept in
// memory; copshttp's default -large-file-threshold when this was written.
const largeFile = 1 << 20

// files serves the tree under root, keeping each small file in memory
// after its first request.
type files struct {
	root string
	mu   sync.Mutex
	m    map[string][]byte
}

func (f *files) cached(p string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.m[p]
	return b, ok
}

func (f *files) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := path.Clean("/" + r.URL.Path)
	if strings.HasSuffix(r.URL.Path, "/") {
		p = path.Join(p, "index.html")
	}
	h := w.Header()
	h["Content-Type"] = []string{"application/octet-stream"}
	// Failed writes below mean the client went away; there is no one to
	// tell.
	if body, ok := f.cached(p); ok {
		h["Content-Length"] = []string{strconv.Itoa(len(body))}
		_, _ = w.Write(body)
		return
	}
	file, err := os.Open(filepath.Join(f.root, filepath.FromSlash(p)))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	defer file.Close()
	info, err := file.Stat()
	if err != nil || !info.Mode().IsRegular() {
		http.NotFound(w, r)
		return
	}
	h["Content-Length"] = []string{strconv.FormatInt(info.Size(), 10)}
	if info.Size() >= largeFile {
		// CopyN wraps the file in an io.LimitedReader, which net/http hands
		// to sendfile; a bare *os.File would take a user-space copy.
		_, _ = io.CopyN(w, file, info.Size())
		return
	}
	body, err := io.ReadAll(file)
	if err != nil || int64(len(body)) != info.Size() {
		http.Error(w, "short read", http.StatusInternalServerError)
		return
	}
	f.mu.Lock()
	f.m[p] = body
	f.mu.Unlock()
	_, _ = w.Write(body)
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: refserver <document root>")
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "refserver:", err)
		os.Exit(1)
	}
	fmt.Printf("reference serving %s on %s (net/http)\n", os.Args[1], ln.Addr())
	err = http.Serve(ln, &files{root: os.Args[1], m: make(map[string][]byte)})
	fmt.Fprintln(os.Stderr, "refserver:", err)
	os.Exit(1)
}
