package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// client is the benchmark's HTTP client for one daemon: JSON in, JSON out,
// and any status other than the expected one is an error (never retried).
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Timeout: 120 * time.Second}}
}

// call sends body (JSON-encoded unless it is a []byte) and decodes the
// response into out when out is non-nil.
func (c *client) call(method, path string, body any, want int, out any) error {
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		data, err := json.Marshal(b)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, want, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

// sseEvent is the subset of serve.Event the client reads.
type sseEvent struct {
	Type  string `json:"type"`
	State string `json:"state"`
	Error string `json:"error"`
}

// waitState follows a job or session event stream until a state event
// satisfies stop, and returns that state. The stream replays retained
// events, so a state reached before the subscription is still seen.
func (c *client) waitState(ctx context.Context, path string, stop func(state string) bool) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e sseEvent
		if json.Unmarshal([]byte(line), &e) != nil || e.Type != "state" {
			continue
		}
		if stop(e.State) {
			if e.Error != "" {
				return e.State, errors.New(e.Error)
			}
			return e.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("GET %s: %w", path, err)
	}
	return "", fmt.Errorf("GET %s: stream ended without a final state", path)
}

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	hs  *http.Server
	url string
	err chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		hs:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(),
		err: make(chan error, 1),
	}
	go func() { l.err <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops the server and waits for its serve loop to return.
func (l *listener) close() {
	l.hs.Close()
	<-l.err
}
