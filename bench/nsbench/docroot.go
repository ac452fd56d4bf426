package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
)

// patternSize is the length of the seeded byte pattern every generated
// file is cut from. A power of two, so offsets wrap with a mask.
const patternSize = 1 << 20

// file is one generated document: its URL path, its size and where in the
// pattern its first byte sits. Distinct files start at distinct offsets,
// so a reply carrying the right length but another file's bytes fails
// verification.
type file struct {
	path string
	size int64
	off  int64
	req  []byte // the GET request for this file, rendered once
}

// docroot is a generated document tree. Contents are a function of the
// seed alone, so the driver verifies bodies without keeping the files in
// memory: byte i of a file is pattern[(off+i) mod patternSize].
type docroot struct {
	pattern []byte
	files   []*file
	byPath  map[string]*file
	index   *file // the small page setup probes fetch
}

// newDocroot generates the tree of workload w for seed: the setup probe's
// index page plus the workload's own documents.
func newDocroot(w *workload, seed int64) *docroot {
	rng := rand.New(rand.NewSource(seed))
	d := &docroot{pattern: make([]byte, patternSize), byPath: make(map[string]*file)}
	rng.Read(d.pattern)
	d.index = d.add("/index.html", 512, rng)
	// Probes ask for the directory, which both servers answer with its
	// index page; net/http would redirect /index.html to it.
	d.index.req = request("/")
	w.add(d, rng)
	return d
}

func (d *docroot) add(path string, size int64, rng *rand.Rand) *file {
	f := &file{
		path: path,
		size: size,
		off:  rng.Int63n(patternSize),
		req:  request(path),
	}
	d.files = append(d.files, f)
	d.byPath[path] = f
	return f
}

func request(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: nsbench\r\n\r\n")
}

// write materializes the tree under dir, replacing whatever was there.
// Files are synced so no writeback of a fresh tree overlaps a measured
// slice.
func (d *docroot) write(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	for _, f := range d.files {
		full := filepath.Join(dir, filepath.FromSlash(f.path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := d.writeFile(full, f); err != nil {
			return fmt.Errorf("write %s: %w", full, err)
		}
	}
	return nil
}

func (d *docroot) writeFile(full string, f *file) error {
	out, err := os.Create(full)
	if err != nil {
		return err
	}
	for pos := int64(0); pos < f.size; {
		i := (f.off + pos) & (patternSize - 1)
		n := min(f.size-pos, patternSize-i)
		if _, err := out.Write(d.pattern[i : i+n]); err != nil {
			out.Close()
			return err
		}
		pos += n
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// verify reports whether b is the slice of f's content starting at pos.
func (d *docroot) verify(f *file, pos int64, b []byte) bool {
	for len(b) > 0 {
		i := (f.off + pos) & (patternSize - 1)
		n := min(int64(len(b)), patternSize-i)
		if !bytes.Equal(b[:n], d.pattern[i:i+n]) {
			return false
		}
		b = b[n:]
		pos += n
	}
	return true
}
