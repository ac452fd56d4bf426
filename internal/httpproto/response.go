package httpproto

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/bufpool"
)

// Response is one HTTP response to encode.
type Response struct {
	Proto   string // defaults to "HTTP/1.1"
	Status  int
	Headers Header
	Body    []byte
	// Close asks the encoder to add "Connection: close".
	Close bool
}

// NewResponse builds a response with the given status and body, with
// Content-Length and Content-Type preset.
func NewResponse(status int, contentType string, body []byte) *Response {
	r := &Response{Status: status, Body: body}
	r.Headers.Set("Content-Type", contentType)
	return r
}

// statusText maps the status codes a static web server emits.
var statusText = map[int]string{
	200: "OK",
	204: "No Content",
	206: "Partial Content",
	301: "Moved Permanently",
	304: "Not Modified",
	400: "Bad Request",
	403: "Forbidden",
	404: "Not Found",
	405: "Method Not Allowed",
	408: "Request Timeout",
	413: "Payload Too Large",
	414: "URI Too Long",
	416: "Range Not Satisfiable",
	500: "Internal Server Error",
	501: "Not Implemented",
	503: "Service Unavailable",
	505: "HTTP Version Not Supported",
}

// StatusText returns the reason phrase for a status code.
func StatusText(code int) string {
	if s, ok := statusText[code]; ok {
		return s
	}
	return "Status " + strconv.Itoa(code)
}

// httpDate formats a time in RFC 1123 GMT form as HTTP requires.
func httpDate(t time.Time) string {
	return t.UTC().Format("Mon, 02 Jan 2006 15:04:05") + " GMT"
}

// AppendResponseHead renders the response head (status line, automatic and
// explicit headers, final CRLF — everything up to but excluding the body)
// onto dst and returns the extended slice. It always emits Content-Length
// (from the body), Date and Server headers unless already present, plus
// "Connection: close" when requested. The Date value comes from the
// once-per-second cache, and all numbers are appended with strconv, so a
// head render performs no allocation beyond dst growth.
func AppendResponseHead(dst []byte, r *Response) []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	dst = append(dst, proto...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = append(dst, ' ')
	dst = append(dst, StatusText(r.Status)...)
	dst = append(dst, '\r', '\n')
	if !r.Headers.Has("Date") {
		dst = append(dst, "Date: "...)
		dst = append(dst, HTTPDateNow()...)
		dst = append(dst, '\r', '\n')
	}
	if !r.Headers.Has("Server") {
		dst = append(dst, "Server: COPS-HTTP/1.0\r\n"...)
	}
	// Content-Length always renders here, whether computed from the
	// in-memory body or preset by a bodiless path (HEAD, streaming), so
	// a HEAD reply is byte-identical to its GET head.
	dst = append(dst, "Content-Length: "...)
	if cl := r.Headers.Get("Content-Length"); cl != "" {
		dst = append(dst, cl...)
	} else {
		dst = strconv.AppendInt(dst, int64(len(r.Body)), 10)
	}
	dst = append(dst, '\r', '\n')
	if r.Close && r.Headers.Get("Connection") == "" {
		dst = append(dst, "Connection: close\r\n"...)
	}
	r.Headers.Each(func(k, v string) {
		if k == "Content-Length" { // already rendered above
			return
		}
		dst = append(dst, k...)
		dst = append(dst, ':', ' ')
		dst = append(dst, v...)
		dst = append(dst, '\r', '\n')
	})
	return append(dst, '\r', '\n')
}

// EncodeResponse renders the response head and body into one slice. The
// hot serve path uses WriteResponse (which never combines head and body);
// EncodeResponse remains for callers that need the full wire image.
func EncodeResponse(r *Response) []byte {
	// Pre-size: head is typically < 256 bytes.
	out := make([]byte, 0, 256+len(r.Body))
	out = AppendResponseHead(out, r)
	return append(out, r.Body...)
}

// headSizeHint sizes the pooled head buffer; a static-server head is well
// under this, so the lease always comes from the smallest pool class.
const headSizeHint = 512

// WriteResponse renders the head into a pooled buffer and writes head and
// body to w as separate segments via net.Buffers — a single writev(2) on a
// TCP connection — so the body (the 16 KB-mean cached file) is never
// memcpy'd into a combined response slice.
func WriteResponse(w io.Writer, r *Response) (int64, error) {
	lease := bufpool.Get(headSizeHint)
	head := AppendResponseHead(lease.Bytes()[:0], r)
	var bufs net.Buffers
	if len(r.Body) > 0 {
		bufs = net.Buffers{head, r.Body}
	} else {
		bufs = net.Buffers{head}
	}
	n, err := bufs.WriteTo(w)
	lease.Release()
	return n, err
}

// responsePool recycles Response values (with their Header storage) across
// requests on the serve hot path.
var responsePool = sync.Pool{
	New: func() any { return new(Response) },
}

// AcquireResponse returns an empty pooled Response ready for use. Callers
// that hand it to ReleaseResponse after the reply is written complete the
// serve path without allocating the Response or its header fields.
func AcquireResponse() *Response {
	return responsePool.Get().(*Response)
}

// ReleaseResponse clears r and returns it to the pool. The caller must not
// touch r (or slices obtained from it) afterwards, and must not release
// responses it could not have exclusively owned.
func ReleaseResponse(r *Response) {
	r.Proto = ""
	r.Status = 0
	r.Body = nil
	r.Close = false
	r.Headers.Reset()
	responsePool.Put(r)
}

// errorPages holds the prebuilt HTML bodies for every known status so the
// error path performs no formatting.
var errorPages = func() map[int][]byte {
	pages := make(map[int][]byte, len(statusText))
	for status := range statusText {
		pages[status] = buildErrorPage(status)
	}
	return pages
}()

// buildErrorPage renders the minimal error document for a status code.
func buildErrorPage(status int) []byte {
	text := StatusText(status)
	b := make([]byte, 0, 96)
	b = append(b, "<html><head><title>"...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, text...)
	b = append(b, "</title></head><body><h1>"...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, text...)
	b = append(b, "</h1></body></html>\n"...)
	return b
}

// ErrorPage returns the shared prebuilt HTML body for a status code.
// Callers must treat it as read-only.
func ErrorPage(status int) []byte {
	if body, ok := errorPages[status]; ok {
		return body
	}
	return buildErrorPage(status)
}

// ErrorResponse builds a minimal HTML error page response. The body is a
// shared prebuilt page; callers must treat it as read-only.
func ErrorResponse(status int, close bool) *Response {
	body, ok := errorPages[status]
	if !ok {
		body = buildErrorPage(status)
	}
	r := NewResponse(status, "text/html", body)
	r.Close = close
	return r
}

// mimeTypes maps file extensions (lowercase, with dot) to content types.
var mimeTypes = map[string]string{
	".html": "text/html",
	".htm":  "text/html",
	".txt":  "text/plain",
	".css":  "text/css",
	".js":   "application/javascript",
	".json": "application/json",
	".xml":  "text/xml",
	".gif":  "image/gif",
	".jpg":  "image/jpeg",
	".jpeg": "image/jpeg",
	".png":  "image/png",
	".ico":  "image/x-icon",
	".svg":  "image/svg+xml",
	".pdf":  "application/pdf",
	".gz":   "application/gzip",
	".tar":  "application/x-tar",
	".zip":  "application/zip",
	".mp3":  "audio/mpeg",
	".mp4":  "video/mp4",
	".wasm": "application/wasm",
}

// MimeType returns the content type for a file name by extension, with
// application/octet-stream as the default.
func MimeType(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		switch name[i] {
		case '.':
			ext := lowerASCII(name[i:])
			if mt, ok := mimeTypes[ext]; ok {
				return mt
			}
			return "application/octet-stream"
		case '/':
			return "application/octet-stream"
		}
	}
	return "application/octet-stream"
}

func lowerASCII(s string) string {
	// Already-lowercase extensions (the common case) pass through without
	// allocating.
	upper := false
	for i := 0; i < len(s); i++ {
		if 'A' <= s[i] && s[i] <= 'Z' {
			upper = true
			break
		}
	}
	if !upper {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}

// Codec adapts the protocol library to the N-Server pipeline: Decode
// parses one request (the Decode Request hook) and Encode renders a
// *Response (the Encode Reply hook).
type Codec struct{}

// Decode implements nserver.Codec.
func (Codec) Decode(buf []byte) (any, int, error) {
	req, n, err := ParseRequest(buf)
	if err != nil {
		return nil, 0, err
	}
	if req == nil {
		return nil, 0, nil
	}
	return req, n, nil
}

// Encode implements nserver.Codec.
func (Codec) Encode(reply any) ([]byte, error) {
	switch v := reply.(type) {
	case *Response:
		return EncodeResponse(v), nil
	case []byte:
		return v, nil
	default:
		return nil, fmt.Errorf("httpproto: cannot encode %T", reply)
	}
}

// AppendHead implements nserver.BufferEncoder: the head is rendered onto
// dst (typically a pooled buffer) and the body is returned as-is, so the
// framework can send both with one writev instead of combining them.
func (Codec) AppendHead(dst []byte, reply any) (head, body []byte, err error) {
	switch v := reply.(type) {
	case *Response:
		return AppendResponseHead(dst, v), v.Body, nil
	case []byte:
		// Raw replies have no head; send the bytes as the body segment.
		return dst, v, nil
	default:
		return nil, nil, fmt.Errorf("httpproto: cannot encode %T", reply)
	}
}
