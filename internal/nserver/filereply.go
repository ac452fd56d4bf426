package nserver

import (
	"errors"
	"io"
	"os"

	"repro/internal/bufpool"
)

// streamChunkSize is the transfer unit of the large-file send path. The
// write deadline is re-armed before every chunk, so WriteTimeout bounds
// how long the peer may stall between chunks rather than the whole
// transfer — a slow-but-progressing client downloading a multi-GB file
// is fine, a stalled one fails within one chunk's deadline.
const streamChunkSize = 1 << 20

// ErrStreamTruncated tears down a connection whose streamed file ended
// before the promised Content-Length was sent: the head already went out,
// so the framing cannot be repaired.
var ErrStreamTruncated = errors.New("nserver: file shorter than streamed length")

// ReplyFile is the large-file variant of Reply: the codec renders the
// reply head into a pooled buffer exactly as Reply does, but the body is
// streamed from src — length bytes starting at offset — without ever
// holding it in memory. On Linux TCP transports each chunk moves with
// sendfile(2) (zero userspace copies); elsewhere, and on wrapped
// transports, a pooled-buffer copy loop moves it with one bounded copy
// per chunk. The reply must carry an explicit Content-Length (the codec
// sees an empty in-memory body). Requires a BufferEncoder codec, or none.
func (c *Conn) ReplyFile(reply any, src *os.File, offset, length int64) error {
	return c.replyFile(reply, outItem{file: src, off: offset, remaining: length})
}

// replyFile sends it — a plain item or a reserved position's — carrying
// a file range behind reply's rendered head. On a connection without a
// codec, reply is the raw head: a []byte, or nil for none.
func (c *Conn) replyFile(reply any, it outItem) error {
	if c.codec == nil {
		it.head, _ = reply.([]byte)
		return c.send(it)
	}
	be, ok := c.codec.(BufferEncoder)
	if !ok {
		return c.encodeFailed(it, errors.New("nserver: ReplyFile requires a BufferEncoder codec"))
	}
	return c.sendReply(be, reply, it)
}

// copyFileChunk is the portable streaming path: it moves up to limit
// bytes from src's current offset through a pooled buffer — one bounded
// copy per read/write pair, never a buffer proportional to the file. dst
// is wrapped so that only its Write is seen: a transport's own ReadFrom
// would bypass the bounded copy.
func copyFileChunk(dst io.Writer, src *os.File, limit int64) (int64, error) {
	lease := bufpool.Get(readChunkSize)
	defer lease.Release()
	return io.CopyBuffer(struct{ io.Writer }{dst}, io.LimitReader(src, limit), lease.Bytes())
}
