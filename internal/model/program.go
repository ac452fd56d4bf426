package model

import (
	"bytes"
	"sort"
	"strings"
)

// Header is one header field line as the client sends it: name, value.
// It is a raw line, not a map entry — duplicate names and ordering are
// part of what the harness exercises.
type Header [2]string

// Name and Value unpack the field line.
func (h Header) Name() string  { return h[0] }
func (h Header) Value() string { return h[1] }

// Request is one structured client request. Rendering is mechanical
// ("METHOD SP TARGET SP PROTO CRLF" + field lines + CRLF + body);
// adversarial shapes — a method with an embedded space, a bad version, a
// signed Content-Length — are expressed through the field values, and
// the specification classifies them, so a request that renders to
// garbage is still a first-class model value.
type Request struct {
	Method  string   `json:"method"`
	Target  string   `json:"target"`
	Proto   string   `json:"proto"`
	Headers []Header `json:"headers,omitempty"`
	Body    string   `json:"body,omitempty"`
}

// Wire renders the request's exact byte image.
func (r *Request) Wire() []byte {
	var b bytes.Buffer
	b.WriteString(r.Method)
	b.WriteByte(' ')
	b.WriteString(r.Target)
	b.WriteByte(' ')
	b.WriteString(r.Proto)
	b.WriteString("\r\n")
	for _, h := range r.Headers {
		b.WriteString(h.Name())
		b.WriteString(": ")
		b.WriteString(h.Value())
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	b.WriteString(r.Body)
	return b.Bytes()
}

// headerValues returns the values of every field line named name
// (ASCII case-insensitive), one entry per line, in order.
func (r *Request) headerValues(name string) []string {
	var vals []string
	for _, h := range r.Headers {
		if strings.EqualFold(h.Name(), name) {
			vals = append(vals, h.Value())
		}
	}
	return vals
}

// combinedHeader joins repeated field lines with ", " — the RFC 9110
// §5.2 combination the server's header map applies — returning "" when
// the field is absent.
func (r *Request) combinedHeader(name string) string {
	return strings.Join(r.headerValues(name), ", ")
}

// ConnScript is the byte stream of one client connection: pipelined
// requests plus the framing schedule. Splits are cumulative byte
// offsets into the rendered stream; the client writes the stream as the
// segments those offsets delimit, one Write per segment, so the
// in-memory transport delivers exactly those read boundaries to the
// server. No splits means one segment.
type ConnScript struct {
	Requests []Request `json:"requests"`
	Splits   []int     `json:"splits,omitempty"`
	// PaceBytes/PaceEveryMs throttle the client's READS: when both are
	// set, the harness consumes at most PaceBytes from the connection
	// per PaceEveryMs tick — a slow reader. Pacing models the client,
	// not the byte stream, so the random generator never emits it;
	// directed slow-reader programs and saved traces do. The
	// specification folds the pace into the fate: a reader starved far
	// below the pace quantum per write-deadline window must be torn down
	// (slow-reader defense), a comfortably fast one changes nothing.
	PaceBytes   int `json:"pace_bytes,omitempty"`
	PaceEveryMs int `json:"pace_every_ms,omitempty"`
}

// Paced reports whether the script throttles its reads.
func (c *ConnScript) Paced() bool { return c.PaceBytes > 0 && c.PaceEveryMs > 0 }

// Wire renders the connection's full byte stream.
func (c *ConnScript) Wire() []byte {
	var b bytes.Buffer
	for i := range c.Requests {
		b.Write(c.Requests[i].Wire())
	}
	return b.Bytes()
}

// Chunks cuts the rendered stream at the split offsets. Out-of-range
// and duplicate offsets are dropped, so a schedule survives request
// edits during shrinking.
func (c *ConnScript) Chunks() [][]byte {
	stream := c.Wire()
	cuts := make([]int, 0, len(c.Splits))
	for _, s := range c.Splits {
		if s > 0 && s < len(stream) {
			cuts = append(cuts, s)
		}
	}
	sort.Ints(cuts)
	var chunks [][]byte
	prev := 0
	for _, s := range cuts {
		if s == prev {
			continue
		}
		chunks = append(chunks, stream[prev:s])
		prev = s
	}
	if prev < len(stream) || len(chunks) == 0 {
		chunks = append(chunks, stream[prev:])
	}
	return chunks
}

// Program is one client program: connections opened and run in order.
type Program struct {
	Name  string       `json:"name,omitempty"`
	Conns []ConnScript `json:"conns"`
}

// Clone deep-copies the program so shrink candidates never alias.
func (p *Program) Clone() *Program {
	cp := &Program{Name: p.Name, Conns: make([]ConnScript, len(p.Conns))}
	for i := range p.Conns {
		src := &p.Conns[i]
		dst := &cp.Conns[i]
		dst.Requests = make([]Request, len(src.Requests))
		for j := range src.Requests {
			r := src.Requests[j]
			r.Headers = append([]Header(nil), r.Headers...)
			dst.Requests[j] = r
		}
		dst.Splits = append([]int(nil), src.Splits...)
		dst.PaceBytes = src.PaceBytes
		dst.PaceEveryMs = src.PaceEveryMs
	}
	return cp
}
