package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// requestTimeout bounds one request; a response slower than this counts
// as a transport error.
const requestTimeout = 5 * time.Second

// client is a minimal HTTP/1.1 keep-alive GET client modelled on
// rws-loadgen's fast client: one persistent connection, the request line
// written from a reused buffer, Content-Length and chunked framing. Unlike
// that client it keeps the last response's ETag and body, which the oracle
// and the swap detector read. net/http's client costs tens of
// microseconds per request, which would make the client, not the server,
// the bottleneck on a small machine.
//
// Each connection worker owns one client; it is not safe for concurrent
// use.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	// etag and body belong to the last response and are overwritten by
	// the next call.
	etag []byte
	body []byte
	// dials counts connections opened, so a run can report that its
	// keep-alive connections stayed open.
	dials int
}

func newClient(addr string) *client {
	return &client{addr: addr}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
}

// get issues one GET and returns the status. A non-zero traceID is sent
// as X-Trace-Id so the server-side span of the request shares its ID. A
// request on a reused connection is retried once on a fresh one: the peer
// may have closed an idle keep-alive connection.
func (c *client) get(path string, traceID int64) (int, error) {
	reused := c.conn != nil
	status, err := c.roundTrip(path, traceID)
	if err != nil && reused {
		c.close()
		status, err = c.roundTrip(path, traceID)
	}
	if err != nil {
		c.close()
		return 0, err
	}
	return status, nil
}

func (c *client) roundTrip(path string, traceID int64) (int, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, err
		}
		c.dials++
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 64<<10)
	}
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, err
	}
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n"...)
	if traceID != 0 {
		c.req = append(c.req, "X-Trace-Id: "...)
		c.req = strconv.AppendInt(c.req, traceID, 10)
		c.req = append(c.req, "\r\n"...)
	}
	c.req = append(c.req, "\r\n"...)
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, err
	}
	return c.readResponse()
}

// readLine reads one CRLF-terminated line, returning a slice into the
// reader's buffer that is valid only until the next read.
func (c *client) readLine() ([]byte, error) {
	b, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	b = b[:len(b)-1]
	if len(b) > 0 && b[len(b)-1] == '\r' {
		b = b[:len(b)-1]
	}
	return b, nil
}

func (c *client) readResponse() (int, error) {
	line, err := c.readLine()
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	status, ok := parseDec(line[9:12])
	if !ok {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	c.etag = c.etag[:0]
	c.body = c.body[:0]
	contentLength := -1
	chunked, closeAfter := false, false
	for {
		line, err := c.readLine()
		if err != nil {
			return 0, err
		}
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			n, ok := parseDec(v)
			if !ok {
				return 0, fmt.Errorf("bad Content-Length %q", v)
			}
			contentLength = n
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			closeAfter = bytes.EqualFold(v, []byte("close"))
		case bytes.EqualFold(k, []byte("Etag")):
			c.etag = append(c.etag, v...)
		}
	}
	switch {
	case status == 204 || status == 304:
	case chunked:
		if err := c.readChunked(); err != nil {
			return 0, err
		}
	case contentLength >= 0:
		c.body = grow(c.body, contentLength)
		if _, err := io.ReadFull(c.br, c.body); err != nil {
			return 0, err
		}
	default:
		// An unframed body runs to connection close.
		b, err := io.ReadAll(c.br)
		if err != nil {
			return 0, err
		}
		c.body = append(c.body, b...)
		closeAfter = true
	}
	if closeAfter {
		c.close()
	}
	return status, nil
}

// readChunked reads a chunked body into c.body: hex size lines, each
// chunk and its CRLF, then any trailer lines after the zero chunk.
func (c *client) readChunked() error {
	for {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
		if err != nil || size < 0 {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			for {
				line, err := c.readLine()
				if err != nil {
					return err
				}
				if len(line) == 0 {
					return nil
				}
			}
		}
		n := len(c.body)
		c.body = grow(c.body, n+int(size))
		if _, err := io.ReadFull(c.br, c.body[n:]); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	}
}

// parseDec parses a non-empty run of decimal digits without allocating.
func parseDec(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 12 {
		return 0, false
	}
	n := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

// grow returns b resized to n bytes, reusing its backing array when it
// is large enough.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	nb := make([]byte, n, max(n, 2*cap(b)))
	copy(nb, b)
	return nb
}
