package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"ispy/internal/experiments"
	"ispy/internal/workload"
)

// clients bounds the load: at most this many connections to ispyd, or CLI
// processes, at once. It is nproc of the 2-core reference host.
const clients = 2

// scale sizes a run. The benchmark runs at fullScale; the smoke test runs the
// same code at a toy scale.
type scale struct {
	// apps are the apps the workloads draw from, before the seed orders them.
	apps []string
	// instrs overrides every program's measured instruction budget (warmups
	// rescale with it); 0 keeps each workload's own budget.
	instrs uint64
	// setups is how many set-ups a run times; setup_s is their median.
	setups int
	// requests is how many loopback HTTP requests the traced run sends.
	requests int
	// pinned requires outputs to match bench/expected/digests.txt, which
	// holds digests of full-scale outputs only.
	pinned bool
}

var fullScale = scale{apps: workload.AppNames, setups: 3, requests: 400, pinned: true}

// env is what a run needs: where the built tools are, the seed and the
// measurement length.
type env struct {
	bin     string // directory holding the built ispy and ispyd
	tmp     string // temporary directory, removed when the run ends
	seed    uint64
	seconds time.Duration
	scale   scale
	// expected maps an output name to its pinned SHA-256 (hex).
	expected map[string]string
	log      io.Writer
}

// newEnv builds cmd/ispy and cmd/ispyd from the repository at root into
// work/bin and creates the run's temporary directory under work. The
// returned cleanup removes it.
func newEnv(root, work string, sc scale, log io.Writer) (*env, func(), error) {
	for _, p := range []string{"go.mod", "cmd/ispy", "cmd/ispyd"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return nil, nil, fmt.Errorf("%s is not the ispy repository: %w", root, err)
		}
	}
	bin := filepath.Join(work, "bin")
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/ispy", "./cmd/ispyd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, nil, fmt.Errorf("building ispy and ispyd: %v\n%s", err, out)
	}
	expected, err := readDigests(filepath.Join(root, "bench", "expected", "digests.txt"))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, nil, err
	}
	e := &env{bin: bin, tmp: tmp, seed: defaultSeed, scale: sc, expected: expected, log: log}
	return e, func() { os.RemoveAll(tmp) }, nil
}

// command prepares a child process of the tool name in e.bin. The child is
// killed if the benchmark dies first, so an interrupted run leaves no server
// or CLI process behind.
func (e *env) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// order returns apps in the order the seed gives them.
func (e *env) order(apps []string) []string {
	r := rand.New(rand.NewPCG(e.seed, 0x15b1))
	out := make([]string, len(apps))
	for i, j := range r.Perm(len(apps)) {
		out[i] = apps[j]
	}
	return out
}

// quickApps returns the apps of `ispy -quick` that the scale includes, in
// seed order.
func (e *env) quickApps() []string {
	return e.order(intersect(experiments.QuickConfig().Apps, e.scale.apps))
}

// scenarioSpec is batch-all's four-tenant traffic scenario: the seed picks
// the tenant order and the arrival sampling.
func (e *env) scenarioSpec() string {
	var tenants []string
	for i, app := range e.order(intersect([]string{"kafka", "wordpress", "drupal", "tomcat"}, e.scale.apps)) {
		slo := "interactive"
		if i%2 == 1 {
			slo = "batch"
		}
		tenants = append(tenants, app+":slo="+slo)
	}
	return fmt.Sprintf("name=bench;seed=%d;requests=400;arrival=gamma:0.7;day=0.6,1.4;zipf=0.8;tenants=%s",
		e.seed, strings.Join(tenants, ","))
}

func intersect(want, have []string) []string {
	var out []string
	for _, w := range want {
		for _, h := range have {
			if w == h {
				out = append(out, w)
				break
			}
		}
	}
	return out
}

// checkDigest compares the SHA-256 of an output with the digest pinned under
// name. At a toy scale, or for an output nothing pins, it checks nothing.
func (e *env) checkDigest(name string, out []byte) error {
	if !e.scale.pinned {
		return nil
	}
	want, ok := e.expected[name]
	got := digest(out)
	switch {
	case !ok:
		return fmt.Errorf("no digest pinned for %s (got %s)", name, got)
	case got != want:
		return fmt.Errorf("%s: output digest %s, pinned %s", name, got, want)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// canonical strips the per-experiment wall-time lines from ispy's stdout and
// sorts the rest, so outputs compare across runs and app orders.
func canonical(stdout []byte) []byte {
	var lines []string
	for _, l := range strings.Split(string(stdout), "\n") {
		if !strings.Contains(l, " completed in ") {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}

// readDigests parses "name sha256" lines; '#' starts a comment line.
func readDigests(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[fields[0]] = fields[1]
	}
	return out, sc.Err()
}
