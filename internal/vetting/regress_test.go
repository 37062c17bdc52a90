package vetting

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestInjectedRegressions is the end-to-end gate proof: a canonical
// regression, grafted onto a pristine copy of the module, must fail
// `ispy-vet -strict` with exit 1 and name the pass that caught it. The
// baseline copy must pass with exit 0, so each failure is attributable to
// the injected change alone.
func TestInjectedRegressions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the analyzer and vets whole module copies")
	}
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "ispy-vet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ispy-vet")
	build.Dir = modRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ispy-vet: %v\n%s", err, out)
	}

	vet := func(t *testing.T, dir string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin, "-strict", "./...")
		cmd.Dir = dir
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, &buf
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("running ispy-vet: %v\n%s", err, buf.String())
		}
		return code, buf.String()
	}

	clean := copyModule(t, modRoot)
	if code, out := vet(t, clean); code != 0 {
		t.Fatalf("pristine copy not vet-clean (exit %d):\n%s", code, out)
	}

	expectFail := func(t *testing.T, dir, pass string) {
		t.Helper()
		code, out := vet(t, dir)
		if code != 1 {
			t.Fatalf("injected %s regression: exit %d, want 1\n%s", pass, code, out)
		}
		if !strings.Contains(out, pass+":") {
			t.Fatalf("injected %s regression not attributed to %s:\n%s", pass, pass, out)
		}
	}

	// A wall-clock reading folded into an analyze response body: the
	// canonical impure-response regression.
	t.Run("purity", func(t *testing.T) {
		dir := copyModule(t, modRoot)
		path := filepath.Join(dir, "internal/server/handlers.go")
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		anchor := "resp := &AnalyzeResponse{App: app, Instrs: instrs,"
		if !bytes.Contains(src, []byte(anchor)) {
			t.Fatalf("anchor for purity graft not found in %s", path)
		}
		graft := "resp := &AnalyzeResponse{App: app, Instrs: uint64(time.Now().UnixNano()),"
		src = bytes.Replace(src, []byte(anchor), []byte(graft), 1)
		write(t, path, string(src))
		expectFail(t, dir, "purity")
	})
}

// TestCopyModuleSkipsIgnoredDirs: the module copies the grafts vet must
// leave out what the loader never reads, such as a hidden build directory
// in the module root.
func TestCopyModuleSkipsIgnoredDirs(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "go.mod"), "module m\n")
	for _, d := range []string{".bench_build", "p"} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write(t, filepath.Join(root, ".bench_build", "big.bin"), "x")
	write(t, filepath.Join(root, "p", "p.go"), "package p\n")

	dst := copyModule(t, root)
	if _, err := os.Stat(filepath.Join(dst, "p", "p.go")); err != nil {
		t.Errorf("package file not copied: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dst, ".bench_build")); !os.IsNotExist(err) {
		t.Errorf("hidden directory copied (stat err %v)", err)
	}
}

// copyModule clones the module source tree into a temp dir, leaving out the
// directories the loader skips (skipDir).
func copyModule(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			return nil
		}
		if d.IsDir() {
			if skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
