package httpproto

import "math/bits"

// Header is a case-insensitive list of header fields in insertion order,
// each stored once under its canonical key. Lookups scan the list: a
// request carries a handful of fields (ParseRequest admits at most
// MaxHeaderFields lines) and a response fewer than ten, so a scan beats
// hashing and the list needs no allocation of its own when it points at a
// Request's inline storage.
//
// The fields the server branches on (see Field) are also tracked in a
// bitmask, kept by Set, Add and Reset. Value reads one of them by its bit:
// an absent field — the answer on almost every request — costs one mask
// test, and no key is canonicalized or compared. Get, Has, Set and Add
// recognize a tracked key in any letter case by its length and
// case-folded bytes, without canonicalizing it. The zero Header is ready
// to use.
type Header struct {
	fields []field
	// tracked holds the bit of every tracked field present in fields.
	tracked Field
}

// field is one header field under its canonical key.
type field struct{ key, val string }

// A Field is the bit of one tracked header field: one a request or
// response is asked about on every serve, mostly to find it absent.
type Field uint8

// The tracked fields, in the order of trackedKeys.
const (
	FieldConnection Field = 1 << iota
	FieldContentLength
	FieldTransferEncoding
	FieldRange
	FieldIfModifiedSince
	FieldDate
	FieldServer
)

// trackedKeys holds the canonical key of each tracked field, indexed by
// the position of its bit.
var trackedKeys = [...]string{
	"Connection", "Content-Length", "Transfer-Encoding", "Range",
	"If-Modified-Since", "Date", "Server",
}

// trackedField returns the bit of the tracked field named name, in any
// letter case, or 0: the key of name's length whose bytes match name's
// case-folded through the lower table.
func trackedField(name string) Field {
	for i, key := range trackedKeys {
		if len(key) == len(name) && equalFold(name, key) {
			return 1 << i
		}
	}
	return 0
}

// equalFold reports whether a and b, of equal length, are equal under
// ASCII case folding.
func equalFold(a, b string) bool {
	for i := 0; i < len(a); i++ {
		if lower[a[i]] != lower[b[i]] {
			return false
		}
	}
	return true
}

// bitIndex returns the position of f's bit, its index in trackedKeys.
func bitIndex(f Field) int { return bits.TrailingZeros8(uint8(f)) }

// lookupKey returns key's canonical form and tracked bit. A tracked key
// takes its canonical form from trackedKeys, whatever its case.
func lookupKey(key string) (ck string, f Field) {
	if f = trackedField(key); f != 0 {
		return trackedKeys[bitIndex(f)], f
	}
	return canonical(key), 0
}

// NewHeader returns an empty header; the zero Header is equally ready.
func NewHeader() Header { return Header{} }

// index returns the position of canonical key ck with tracked bit f, or
// -1. A tracked key the mask says is absent costs no scan.
func (h *Header) index(ck string, f Field) int {
	if f != 0 && h.tracked&f == 0 {
		return -1
	}
	for i := range h.fields {
		if h.fields[i].key == ck {
			return i
		}
	}
	return -1
}

// Value returns the value of the tracked field f, one Field constant, or
// "" when it is absent. An absent field costs one mask test.
func (h *Header) Value(f Field) string {
	if h.tracked&f == 0 {
		return ""
	}
	if i := h.index(trackedKeys[bitIndex(f)], f); i >= 0 {
		return h.fields[i].val
	}
	return "" // f was more than one Field
}

// Set stores a header value, replacing any previous value in place.
func (h *Header) Set(key, value string) {
	ck, f := lookupKey(key)
	if i := h.index(ck, f); i >= 0 {
		h.fields[i].val = value
		return
	}
	h.fields = append(h.fields, field{ck, value})
	h.tracked |= f
}

// Add appends a header value: a repeated key extends the stored value as
// a comma-separated list per the RFC 9110 §5.2 combination rule. The
// request parser fills headers the same way, so duplicate field lines
// stay visible to later checks — a second Content-Length can then never
// hide behind a last-write-wins Set (the §8.6 smuggling defense).
func (h *Header) Add(key, value string) {
	ck, f := lookupKey(key)
	h.add(ck, f, value)
}

// add is Add for a key already in canonical form with tracked bit f.
func (h *Header) add(ck string, f Field, value string) {
	if i := h.index(ck, f); i >= 0 {
		h.fields[i].val += ", " + value
		return
	}
	h.fields = append(h.fields, field{ck, value})
	h.tracked |= f
}

// Get returns the value for key ("" when absent).
func (h *Header) Get(key string) string {
	if i := h.index(lookupKey(key)); i >= 0 {
		return h.fields[i].val
	}
	return ""
}

// Has reports whether the header is present.
func (h *Header) Has(key string) bool { return h.index(lookupKey(key)) >= 0 }

// Len returns the number of distinct header keys.
func (h *Header) Len() int { return len(h.fields) }

// Each calls f for every header in insertion order.
func (h *Header) Each(f func(key, value string)) {
	for _, kv := range h.fields {
		f(kv.key, kv.val)
	}
}

// Reset empties the header for reuse, keeping the field slice's capacity
// (the Response pool relies on this to make header writes free in steady
// state).
func (h *Header) Reset() {
	clear(h.fields)
	h.fields = h.fields[:0]
	h.tracked = 0
}

// canonical normalizes a header key to Canonical-Dash-Form. Keys that are
// already canonical — every key the server itself sets — are returned
// unchanged without allocating.
func canonical(key string) string {
	upper := true
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (upper && 'a' <= c && c <= 'z') || (!upper && 'A' <= c && c <= 'Z') {
			return canonicalize(key)
		}
		upper = c == '-'
	}
	return key
}

// canonicalize is the allocating slow path of canonical.
func canonicalize(key string) string {
	b := []byte(key)
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - ('a' - 'A')
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c + ('a' - 'A')
		}
		upper = c == '-'
	}
	return string(b)
}
