package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// server is one running fta serve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	// client holds one keep-alive connection to the server: the load
	// generator is a single closed-loop caller.
	client *http.Client
	done   chan error
}

// startServer launches fta serve with the shipped defaults plus extra flags
// and waits until GET /readyz answers 200.
func startServer(fta, logDir string, extra ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(logDir, "serve-*.log")
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"serve", "-addr", addr}, extra...)
	cmd := exec.Command(fta, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start fta serve: %w", err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		log:  logf,
		client: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		},
		done: make(chan error, 1),
	}
	go func() { s.done <- cmd.Wait() }()
	if err := s.waitReady(30 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("fta serve exited before ready: %v (log %s)", err, s.log.Name())
		default:
		}
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("fta serve not ready after %v (log %s)", limit, s.log.Name())
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, waits for the process to exit (killing it after ten
// seconds) and closes the log.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		s.done <- err
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		s.done <- <-s.done
	}
	s.log.Close()
}

// reply is one HTTP exchange's outcome, checked after the timed window.
type reply struct {
	status int
	body   []byte
	err    error
}

// post sends one request and reads the whole reply.
func (s *server) post(ctx context.Context, path string, body []byte) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	return s.do(req)
}

func (s *server) get(ctx context.Context, path string) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return reply{err: err}
	}
	return s.do(req)
}

func (s *server) do(req *http.Request) reply {
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, err: err}
}

// ok reports a transport error or non-200 status as an error.
func (r reply) ok() error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return nil
}

// servers tracks every started process so an aborted run still stops them.
type servers struct{ list []*server }

func (ss *servers) start(fta, logDir string, extra ...string) (*server, error) {
	s, err := startServer(fta, logDir, extra...)
	if err != nil {
		return nil, err
	}
	ss.list = append(ss.list, s)
	return s, nil
}

// stop stops one tracked server.
func (ss *servers) stop(s *server) {
	for i, x := range ss.list {
		if x == s {
			ss.list = append(ss.list[:i], ss.list[i+1:]...)
			break
		}
	}
	s.stop()
}

func (ss *servers) stopAll() {
	for len(ss.list) > 0 {
		ss.stop(ss.list[0])
	}
}
