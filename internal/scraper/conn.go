package scraper

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// userAgent mimics human/browser traffic (§3 iii).
const userAgent = "Mozilla/5.0 (X11; Linux x86_64) ReproCrawler/1.0"

// Redirects follow http.Client's default policy: the tenth redirect
// response ends the fetch, and up to maxBodySlurpSize of each redirect
// body is read so that its connection can serve the next hop.
const (
	maxRedirects     = 10
	maxBodySlurpSize = 2 << 10
)

// aLongTimeAgo is the deadline that unblocks a connection's I/O at once.
var aLongTimeAgo = time.Unix(1, 0)

// request is what each hop of a fetch writes.
type request struct {
	method string
	url    *url.URL
	pass   string // X-Captcha-Pass, when the client holds one
	form   string // urlencoded body of a POST
}

// conn is one keep-alive connection. The fetch that took it from the
// pool, or dialled it, is its only user until it is released.
type conn struct {
	net.Conn
	addr   string
	br     *bufio.Reader
	wbuf   []byte      // the request bytes, reused across requests
	reused bool        // it served a response before this request
	stop   func() bool // ends this request's watch on the context
}

// connPool holds each host's idle connections, most recently used last.
type connPool struct {
	mu   sync.Mutex
	idle map[string][]*conn
}

func (p *connPool) get(addr string) *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.idle[addr]
	if len(cs) == 0 {
		return nil
	}
	cn := cs[len(cs)-1]
	cs[len(cs)-1] = nil
	p.idle[addr] = cs[:len(cs)-1]
	return cn
}

func (p *connPool) put(cn *conn) {
	p.mu.Lock()
	if len(p.idle[cn.addr]) < maxIdleConnsPerHost {
		if p.idle == nil {
			p.idle = make(map[string][]*conn)
		}
		p.idle[cn.addr] = append(p.idle[cn.addr], cn)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	cn.Close()
}

// CloseIdleConnections closes every connection the client holds idle.
// A connection in use by a fetch is not interrupted; it returns to the
// pool when the fetch ends.
func (c *Client) CloseIdleConnections() {
	c.conns.mu.Lock()
	idle := c.conns.idle
	c.conns.idle = nil
	c.conns.mu.Unlock()
	for _, cs := range idle {
		for _, cn := range cs {
			cn.Close()
		}
	}
}

// do sends req and follows redirects as http.Client's default policy
// does: a 301, 302 or 303 turns a POST into a bodiless GET, and the
// tenth redirect is an error. One deadline, now plus the client's
// timeout, bounds every hop and the final body; cancelling ctx cuts it
// short. A nil response means no response head arrived; a response
// with an error means its body died.
func (c *Client) do(ctx context.Context, req request) (*http.Response, []byte, error) {
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	op := "Get" // url.Error's Op, as http.Client spells it
	if req.method == http.MethodPost {
		op = "Post"
	}
	for redirects := 0; ; {
		resp, cn, err := c.roundTrip(ctx, req, deadline)
		if err != nil {
			return nil, nil, &url.Error{Op: op, URL: req.url.String(), Err: err}
		}
		loc := resp.Header.Get("Location")
		if !isRedirect(resp.StatusCode) || loc == "" {
			body, err := io.ReadAll(resp.Body)
			c.release(cn, resp, err == nil)
			return resp, body, err
		}
		next, err := req.url.Parse(loc)
		if err != nil {
			c.release(cn, resp, false)
			return nil, nil, &url.Error{Op: op, URL: req.url.String(),
				Err: fmt.Errorf("failed to parse Location header %q: %v", loc, err)}
		}
		_, err = io.CopyN(io.Discard, resp.Body, maxBodySlurpSize)
		c.release(cn, resp, err == io.EOF)
		if redirects++; redirects == maxRedirects {
			return nil, nil, &url.Error{Op: op, URL: loc, Err: fmt.Errorf("stopped after %d redirects", maxRedirects)}
		}
		if resp.StatusCode <= http.StatusSeeOther { // 301, 302, 303
			req.method, req.form = http.MethodGet, ""
		}
		req.url = next
	}
}

func isRedirect(status int) bool {
	switch status {
	case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		return true
	}
	return false
}

// roundTrip writes req on an idle connection to its host, or a new
// one, and reads the response head. Like http.Transport, it sends the
// request once more on a new connection when a reused one fails before
// the first response byte: the server may have closed it while idle.
func (c *Client) roundTrip(ctx context.Context, req request, deadline time.Time) (*http.Response, *conn, error) {
	addr, err := dialAddr(req.url)
	if err != nil {
		return nil, nil, err
	}
	cn := c.conns.get(addr)
	for {
		if cn == nil {
			if cn, err = dial(ctx, addr, deadline); err != nil {
				return nil, nil, err
			}
		}
		cn.watch(ctx, deadline)
		resp, replay, err := c.exchange(cn, req)
		if err == nil {
			return resp, cn, nil
		}
		cn.stop()
		cn.Close()
		if !cn.reused || !replay || isTimeout(err) {
			return nil, nil, err
		}
		cn = nil
	}
}

// watch sets the fetch's deadline on cn and cuts it short once ctx is
// done.
func (cn *conn) watch(ctx context.Context, deadline time.Time) {
	// SetDeadline fails only on a closed connection, which the
	// exchange then fails on.
	cn.SetDeadline(deadline)
	cn.stop = context.AfterFunc(ctx, func() { cn.SetDeadline(aLongTimeAgo) })
}

// exchange writes req in one Write and reads the response head. replay
// reports whether the request may be sent again, as http.Transport
// decides: nothing was written, or a GET got no response byte.
func (c *Client) exchange(cn *conn, req request) (resp *http.Response, replay bool, err error) {
	cn.wbuf = c.appendRequest(cn.wbuf[:0], req)
	if n, err := cn.Write(cn.wbuf); err != nil {
		return nil, n == 0, err
	}
	if _, err := cn.br.Peek(1); err != nil {
		return nil, req.method == http.MethodGet, err
	}
	resp, err = http.ReadResponse(cn.br, nil)
	return resp, false, err
}

// release ends the request's watch on the context and pools cn if keep
// holds and the response left it ready for another request; otherwise
// it closes cn.
func (c *Client) release(cn *conn, resp *http.Response, keep bool) {
	if cn.stop() && keep && !resp.Close && resp.StatusCode >= 200 && cn.br.Buffered() == 0 {
		cn.reused = true
		c.conns.put(cn)
		return
	}
	cn.Close()
}

// appendRequest appends req as HTTP/1.1: the request line, Host, then
// the client's headers in a fixed order, then the body.
func (c *Client) appendRequest(b []byte, req request) []byte {
	b = append(b, req.method...)
	b = append(b, ' ')
	b = append(b, req.url.RequestURI()...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, req.url.Host...)
	b = append(b, "\r\nUser-Agent: "+userAgent+"\r\nX-Session: "...)
	b = append(b, c.session...)
	if req.pass != "" {
		b = append(b, "\r\nX-Captcha-Pass: "...)
		b = append(b, req.pass...)
	}
	if req.method != http.MethodGet {
		b = append(b, "\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(req.form)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	return append(b, req.form...)
}

// dialAddr returns the host:port an http URL names.
func dialAddr(u *url.URL) (string, error) {
	switch {
	case u.Scheme != "http":
		return "", fmt.Errorf("unsupported protocol scheme %q", u.Scheme)
	case u.Host == "":
		return "", errors.New("http: no Host in request URL")
	case u.Port() == "":
		return net.JoinHostPort(u.Hostname(), "80"), nil
	}
	return u.Host, nil
}

func dial(ctx context.Context, addr string, deadline time.Time) (*conn, error) {
	d := net.Dialer{Timeout: 30 * time.Second, Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: nc, addr: addr, br: bufio.NewReader(nc)}, nil
}
