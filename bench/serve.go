package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	startTimeout   = 30 * time.Second
	stopTimeout    = 30 * time.Second
	requestTimeout = 60 * time.Second
)

// ispyd is one running server process.
type ispyd struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer // read only after cmd.Wait returned
}

// startServer launches ispyd on a free loopback port and returns once
// /readyz answers 200.
func startServer(e *env, extra ...string) (*ispyd, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0"}
	if e.scale.instrs != 0 {
		args = append(args, "-instrs", strconv.FormatUint(e.scale.instrs, 10))
	}
	s := &ispyd{cmd: e.command("ispyd", append(args, extra...)...)}
	s.cmd.Stderr = &s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	// The first line names the address; a server that exits first closes
	// stdout instead. The one line after it, at exit, fits the pipe buffer.
	watchdog := time.AfterFunc(startTimeout, func() { s.cmd.Process.Kill() })
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if !watchdog.Stop() || err != nil {
		s.kill()
		return nil, fmt.Errorf("ispyd did not start serving: %s", s.stderr.String())
	}
	s.url = strings.TrimPrefix(strings.TrimSpace(line), "ispyd: serving on ")
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	for deadline := time.Now().Add(startTimeout); ; time.Sleep(2 * time.Millisecond) {
		resp, err := c.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("ispyd at %s was not ready within %v", s.url, startTimeout)
		}
	}
}

// stop reads the server's peak RSS, then sends SIGTERM and waits for the
// drain. A server that exits nonzero, or must be killed, is an error.
func (s *ispyd) stop() (rssKB int64, err error) {
	rssKB, rerr := vmHWM(s.cmd.Process.Pid)
	s.cmd.Process.Signal(syscall.SIGTERM)
	watchdog := time.AfterFunc(stopTimeout, func() { s.cmd.Process.Kill() })
	werr := s.cmd.Wait()
	if !watchdog.Stop() {
		return rssKB, errors.New("ispyd did not drain after SIGTERM")
	}
	if werr != nil {
		return rssKB, fmt.Errorf("ispyd exited with %v: %s", werr, s.stderr.String())
	}
	return rssKB, rerr
}

// kill ends the server without a drain.
func (s *ispyd) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// vmHWM returns a process's peak resident set size in kB.
func vmHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// newClient returns an HTTP client holding at most `clients` connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
	}
}

// bodies checks analyze responses: every 200 body for one app is
// byte-identical within a run and matches the digest pinned for the app.
type bodies struct {
	e    *env
	mu   sync.Mutex
	seen map[string]string
}

func (b *bodies) check(app string, body []byte) error {
	d := digest(body)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.seen == nil {
		b.seen = map[string]string{}
	}
	if prev, ok := b.seen[app]; ok {
		if prev != d {
			return fmt.Errorf("serve/%s: response body changed within the run", app)
		}
		return nil
	}
	b.seen[app] = d
	return b.e.checkDigest("serve/"+app, body)
}

// analyze posts one analyze request and checks its response.
func analyze(c *http.Client, url, app string, check *bodies) error {
	resp, err := c.Post(url+"/v1/analyze", "application/json", strings.NewReader(`{"app":"`+app+`"}`))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("serve/%s: reading the response: %w", app, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve/%s: status %d: %s", app, resp.StatusCode, bytes.TrimSpace(body))
	}
	return check.check(app, body)
}

// serveCold is a closed loop of `clients` clients against a server with no
// artifact cache, cycling through the apps in seed order. Each client sends
// its next request when the previous one returns, until the slice ends.
func serveCold(e *env, o *outcome) {
	apps, check, c := e.order(e.scale.apps), &bodies{e: e}, newClient()
	defer c.CloseIdleConnections()
	s := setupServers(e, o, false, c, apps, check)
	if s == nil {
		return
	}
	var next atomic.Uint64
	measure(e, o, func(slice time.Duration) {
		until := time.Now().Add(slice)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for began := time.Now(); began.Before(until); began = time.Now() {
					app := apps[(next.Add(1)-1)%uint64(len(apps))]
					err := analyze(c, s.url, app, check)
					o.op(time.Since(began), err)
				}
			}()
		}
		wg.Wait()
	})
	finishServer(s, o)
}

// serveWarm is a closed loop of one client against a server whose artifact
// cache set-up warmed. An operation is one round: a request for each app, one
// after another in seed order. With one request in flight none waits behind
// another, so a slower host stretches a round in proportion instead of
// through a growing queue. The operation is a round, not a request, because
// a warm request's time depends mostly on its app (about 6 to 24 ms): a
// quantile over requests falls on whichever app straddles it, while every
// round holds the same mix.
func serveWarm(e *env, o *outcome) {
	apps, check, c := e.order(e.scale.apps), &bodies{e: e}, newClient()
	defer c.CloseIdleConnections()
	s := setupServers(e, o, true, c, apps, check)
	if s == nil {
		return
	}
	measure(e, o, func(slice time.Duration) {
		o.repeat(slice, func() {
			began := time.Now()
			var err error
			for _, app := range apps {
				if err = analyze(c, s.url, app, check); err != nil {
					break
				}
			}
			o.op(time.Since(began), err)
		})
	})
	finishServer(s, o)
}

// setupServers times e.scale.setups set-ups — start ispyd, wait until
// /readyz answers, then request every app once over `clients` connections,
// which fills the artifact cache when there is one — and stops every server
// but the last, which it returns. With cache set, each server gets a fresh
// artifact-cache directory.
func setupServers(e *env, o *outcome, cache bool, c *http.Client, apps []string, check *bodies) *ispyd {
	var s *ispyd
	for i := 0; i < e.scale.setups; i++ {
		if s != nil {
			if _, err := s.stop(); err != nil {
				o.problem(err)
			}
		}
		var extra []string
		if cache {
			dir, err := os.MkdirTemp(e.tmp, "serve-cache-")
			if err != nil {
				o.problem(err)
				return nil
			}
			extra = []string{"-cache-dir", dir}
		}
		err := o.setup(func() error {
			var err error
			if s, err = startServer(e, extra...); err != nil {
				return err
			}
			if err = requestAll(c, s.url, apps, check); err != nil {
				s.kill()
			}
			return err
		})
		if err != nil {
			o.problem(err)
			return nil
		}
	}
	return s
}

// requestAll requests every app once over `clients` connections.
func requestAll(c *http.Client, url string, apps []string, check *bodies) error {
	errs := make([]error, len(apps))
	var wg sync.WaitGroup
	var next atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(apps); k = int(next.Add(1) - 1) {
				errs[k] = analyze(c, url, apps[k], check)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// finishServer checks the server's own counters — every request it saw
// succeeded, with no retry, degraded service, shedding or breaker trip —
// then records its peak RSS and drains it.
func finishServer(s *ispyd, o *outcome) {
	if err := checkStatus(s.url); err != nil {
		o.problem(err)
	}
	rss, err := s.stop()
	if err != nil {
		o.problem(err)
	}
	o.peakRSS(rss)
}

func checkStatus(url string) error {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	st, err := status(c, url)
	if err != nil {
		return err
	}
	r := st.Requests
	if r.OK != r.Total || r.Retries+r.Degraded+r.Shed+st.Trips != 0 {
		return fmt.Errorf("statusz: %s; %d breaker trips", r.Summary(), st.Trips)
	}
	return nil
}
