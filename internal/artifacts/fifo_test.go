//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package artifacts

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// stragglerBound is how long an abandoned file operation may take to exit
// once the disk answers.
const stragglerBound = 10 * time.Second

// TestAbandonedReadExits: a load whose context ends while its disk read
// hangs misses at once, and the goroutine left with the read exits as soon
// as the disk answers. The entry path is a FIFO, so os.ReadFile blocks in
// open until the test writes to it. persist's writes go through the same
// waitOrAbandon, so this guards both stragglers.
func TestAbandonedReadExits(t *testing.T) {
	c := testCache(t)
	k := NewKey("stats", "app").Uint(1)
	path := filepath.Join(c.Dir(), k.Filename())
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hit := make(chan bool, 1)
	go func() {
		_, ok := c.LoadStats(ctx, k)
		hit <- ok
	}()
	waitStragglers(t, "the read never blocked on the FIFO", func(gs [][]byte) bool {
		return len(gs) == 1 && bytes.Contains(gs[0], []byte("os.ReadFile"))
	})

	cancel()
	select {
	case ok := <-hit:
		if ok {
			t.Fatal("a load abandoned mid-read returned a hit")
		}
	case <-time.After(stragglerBound):
		t.Fatal("the load kept waiting on the disk after its context ended")
	}

	// The disk answers: the abandoned read returns into its one-slot
	// channel and its goroutine must exit.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	waitStragglers(t, "the abandoned read's goroutine is still running", func(gs [][]byte) bool { return len(gs) == 0 })
}

// waitStragglers polls until ok accepts the stacks of the goroutines the
// package started (those a test function started aside), failing with msg
// and the stacks after stragglerBound.
func waitStragglers(t *testing.T, msg string, ok func([][]byte) bool) {
	t.Helper()
	deadline := time.Now().Add(stragglerBound)
	for {
		var gs [][]byte
		for _, g := range bytes.Split(allStacks(), []byte("\n\n")) {
			if bytes.Contains(g, []byte("created by ispy/internal/artifacts.")) &&
				!bytes.Contains(g, []byte("created by ispy/internal/artifacts.Test")) {
				gs = append(gs, g)
			}
		}
		if ok(gs) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s after %v:\n%s", msg, stragglerBound, bytes.Join(gs, []byte("\n\n")))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// allStacks returns every goroutine's stack.
func allStacks() []byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
