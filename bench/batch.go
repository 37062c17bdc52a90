package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cli runs one ispy invocation and returns its stdout, wall time and peak
// RSS. A nonzero exit is an error carrying the tail of stderr.
func cli(e *env, args ...string) (stdout []byte, d time.Duration, rssKB int64, err error) {
	cmd := e.command("ispy", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	began := time.Now()
	err = cmd.Run()
	d = time.Since(began)
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rssKB = ru.Maxrss // kB on Linux
		}
	}
	if err != nil {
		msg := errb.String()
		if len(msg) > 2000 {
			msg = msg[len(msg)-2000:]
		}
		return nil, d, rssKB, fmt.Errorf("ispy %s: %v\n%s", strings.Join(args, " "), err, msg)
	}
	return out.Bytes(), d, rssKB, nil
}

// warmPasses is how many times a batch-all cycle reruns its pair warm.
const warmPasses = 5

// batchSetup times `ispy apps` e.scale.setups times: CLI start-up plus the
// generation of all nine workload presets, which every batch invocation pays
// before it simulates anything.
func batchSetup(e *env, o *outcome) error {
	for i := 0; i < e.scale.setups; i++ {
		if err := o.setup(func() error { _, _, _, err := cli(e, "apps"); return err }); err != nil {
			o.problem(err)
			return err
		}
	}
	return nil
}

// batchSim repeats `ispy -instrs simInstrs -apps <seed order> run fig1 fig5`
// with no artifact cache. Its output, canonicalized, must not change within
// the run and must match the pinned digest.
func batchSim(e *env, o *outcome) {
	if batchSetup(e, o) != nil {
		return
	}
	instrs := e.scale.instrs
	if instrs == 0 {
		instrs = simInstrs
	}
	args := []string{"-instrs", strconv.FormatUint(instrs, 10),
		"-apps", strings.Join(e.order(e.scale.apps), ","), "run", "fig1", "fig5"}
	var first []byte
	measure(e, o, func(slice time.Duration) {
		o.repeat(slice, func() {
			out, d, rss, err := cli(e, args...)
			o.peakRSS(rss)
			if err == nil {
				err = sameOutput(e, "batch-sim", true, &first, canonical(out))
			}
			o.op(d, err)
		})
	})
}

// batchAll repeats one cycle: `ispy -quick all` and a seeded four-tenant
// scenario, both cold against a fresh artifact cache, then both again
// warmPasses times warm against the cache the cold pair wrote. The warm
// outputs must equal the cold ones byte for byte.
func batchAll(e *env, o *outcome) {
	if batchSetup(e, o) != nil {
		return
	}
	quick := []string{"-quick"}
	if e.scale.instrs != 0 {
		quick = append(quick, "-instrs", strconv.FormatUint(e.scale.instrs, 10))
	}
	steps := []*struct {
		name  string
		args  []string
		pin   bool
		canon func([]byte) []byte
		first []byte
	}{
		{"batch-all/all", []string{"-apps", strings.Join(e.quickApps(), ","), "all"}, true, canonical, nil},
		// The scenario's output depends on the seed; only the default seed's is pinned.
		{"batch-all/scenario", []string{"-scenario", e.scenarioSpec()}, e.seed == defaultSeed,
			func(b []byte) []byte { return b }, nil},
	}
	measure(e, o, func(slice time.Duration) {
		o.repeat(slice, func() {
			dir, err := os.MkdirTemp(e.tmp, "batch-cache-")
			if err != nil {
				o.op(0, err)
				return
			}
			defer os.RemoveAll(dir)
			var total time.Duration
			var errs []error
			for pass := 0; pass <= warmPasses; pass++ { // cold, then warm
				for _, s := range steps {
					args := append(append(append([]string{}, quick...), "-cache-dir", dir), s.args...)
					out, d, rss, err := cli(e, args...)
					total += d
					o.peakRSS(rss)
					if err == nil {
						err = sameOutput(e, s.name, s.pin, &s.first, s.canon(out))
					}
					errs = append(errs, err)
				}
			}
			o.op(total, errors.Join(errs...))
		})
	})
}

// sameOutput checks out against the run's first output named name and, when
// pin is set, the first one against the digest pinned under name.
func sameOutput(e *env, name string, pin bool, first *[]byte, out []byte) error {
	if *first == nil {
		*first = out
		if !pin {
			return nil
		}
		return e.checkDigest(name, out)
	}
	if !bytes.Equal(*first, out) {
		return fmt.Errorf("%s: output changed within the run", name)
	}
	return nil
}
