package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"
)

// fastClient is a minimal HTTP/1.1 keep-alive GET client, the only
// client on the measured path. net/http costs tens of microseconds per
// request in goroutine handoffs, header maps, and response plumbing; on
// a small box that client-side overhead, not the server, caps the
// measured throughput. This client holds one persistent connection,
// writes the request line from a reused buffer, and discards the body in
// place — understanding both Content-Length and chunked framing, since
// the serve plane lets net/http pick chunked encoding for bodies it
// doesn't buffer.
//
// Each worker owns one fastClient per target; the type is not safe for
// concurrent use.
type fastClient struct {
	addr    string // dial target, host:port
	host    string // Host header value
	prefix  string // the target URL's path, prepended to every request path
	timeout time.Duration
	conn    net.Conn
	br      *bufio.Reader
	req     []byte
}

func newFastClient(t targetSpec, timeout time.Duration) *fastClient {
	return &fastClient{addr: t.addr, host: t.host, prefix: t.prefix, timeout: timeout}
}

func (c *fastClient) close() {
	if c.conn == nil {
		return
	}
	c.conn.Close()
	c.conn = nil
	c.br = nil
}

// staleConn marks a failure showing that a reused keep-alive connection
// was already dead when the request went out: the write failed, or the
// peer closed or reset the connection before any response byte arrived.
// Only such a request can be resent without the server seeing it twice.
type staleConn struct{ error }

func (e staleConn) Unwrap() error { return e.error }

// get issues one GET and returns the response status, retrying once on
// a fresh connection when a reused one turns out stale: a keep-alive
// peer may close an idle connection between requests, which is not a
// server failure. A timeout or any failure after the response began is
// reported, never retried.
func (c *fastClient) get(path string) (int, error) {
	reused := c.conn != nil
	status, err := c.roundTrip(path)
	if reused && errors.As(err, new(staleConn)) {
		c.close()
		status, err = c.roundTrip(path)
	}
	if err != nil {
		c.close()
		return 0, err
	}
	return status, nil
}

func (c *fastClient) roundTrip(path string) (int, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			return 0, err
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 64<<10)
	}
	c.conn.SetDeadline(time.Now().Add(c.timeout))
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, c.prefix...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.host...)
	c.req = append(c.req, "\r\n\r\n"...)
	if _, err := c.conn.Write(c.req); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return 0, err
		}
		return 0, staleConn{err}
	}
	return c.readResponse()
}

// readLine reads one CRLF-terminated line, returning a slice into the
// reader's buffer (valid only until the next read).
func (c *fastClient) readLine() ([]byte, error) {
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

func (c *fastClient) readResponse() (int, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		if len(line) == 0 && (err == io.EOF || errors.Is(err, syscall.ECONNRESET)) {
			return 0, staleConn{err}
		}
		return 0, err
	}
	line = bytes.TrimSuffix(line[:len(line)-1], []byte("\r"))
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	status := 0
	for _, d := range line[9:12] {
		if d < '0' || d > '9' {
			return 0, fmt.Errorf("bad status line %q", line)
		}
		status = status*10 + int(d-'0')
	}
	contentLength := -1
	chunked := false
	closeAfter := false
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
			// At most 18 digits: the value cannot overflow an int64.
			if len(v) == 0 || len(v) > 18 {
				return 0, fmt.Errorf("bad Content-Length %q", v)
			}
			n := 0
			for _, d := range v {
				if d < '0' || d > '9' {
					return 0, fmt.Errorf("bad Content-Length %q", v)
				}
				n = n*10 + int(d-'0')
			}
			contentLength = n
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			closeAfter = bytes.EqualFold(v, []byte("close"))
		}
	}
	switch {
	case status == 204 || status == 304:
		// No body by definition.
	case chunked:
		if err := c.discardChunked(); err != nil {
			return 0, err
		}
	case contentLength >= 0:
		if _, err := c.br.Discard(contentLength); err != nil {
			return 0, err
		}
	default:
		// Unframed body: it runs to connection close.
		io.Copy(io.Discard, c.br)
		closeAfter = true
	}
	if closeAfter {
		c.close()
	}
	return status, nil
}

// discardChunked consumes a chunked body: hex size lines, each chunk
// plus its trailing CRLF, then any trailer lines after the zero chunk.
func (c *fastClient) discardChunked() error {
	for {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = bytes.TrimSpace(line)
		size, err := parseHex(line)
		if err != nil {
			return err
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
		if _, err := c.br.Discard(int(size) + 2); err != nil {
			return err
		}
	}
}

func parseHex(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 15 {
		return 0, fmt.Errorf("bad chunk size %q", b)
	}
	var n int64
	for _, d := range b {
		switch {
		case d >= '0' && d <= '9':
			n = n<<4 | int64(d-'0')
		case d >= 'a' && d <= 'f':
			n = n<<4 | int64(d-'a'+10)
		case d >= 'A' && d <= 'F':
			n = n<<4 | int64(d-'A'+10)
		default:
			return 0, fmt.Errorf("bad chunk size %q", b)
		}
	}
	return n, nil
}
