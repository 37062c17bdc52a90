// Module loading for the analyzer: a small, stdlib-only substitute for
// golang.org/x/tools/go/packages. Module-local import paths are resolved
// through explicit prefix→directory roots (read from go.mod), so the loader
// never depends on go/build's module machinery; everything else (the
// standard library) is read from the compiler's export data via
// go/importer's "gc" importer, located by one `go list -export std` (which
// builds the export data into the go build cache on first use). Test files
// are excluded — the passes govern shipped code, and fixture packages under
// testdata/ are loaded explicitly by the analyzer's own tests through an
// extra root.
package vetting

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages on demand, caching results. It
// implements types.ImporterFrom so packages can import each other and the
// standard library.
type Loader struct {
	fset  *token.FileSet
	roots []root
	std   types.ImporterFrom
	pkgs  map[string]*loadEntry
}

type root struct{ prefix, dir string }

type loadEntry struct {
	pkg     *Package
	err     error
	loading bool
}

// Every Loader shares one standard-library importer instance (and therefore
// one *token.FileSet, which the imported packages' positions are bound to),
// so each stdlib package's export data is read once per process no matter
// how many loads the tests and passes perform. The gc importer memoizes
// internally but is not safe for concurrent use; the shared mutex
// serializes it.
var shared struct {
	once sync.Once
	mu   sync.Mutex
	fset *token.FileSet
	std  types.ImporterFrom
	err  error // from locating the export data; every import returns it
}

func sharedImporter() (*token.FileSet, types.ImporterFrom) {
	shared.once.Do(func() {
		shared.fset = token.NewFileSet()
		var exports map[string]string
		exports, shared.err = stdExports()
		lookup := func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}
		shared.std = importer.ForCompiler(shared.fset, "gc", lookup).(types.ImporterFrom)
	})
	return shared.fset, lockedImporter{}
}

// stdExports maps each standard-library import path to its export data
// file, as `go list -export` reports them.
func stdExports() (map[string]string, error) {
	cmd := exec.Command("go", "list", "-export", "-f", "{{.ImportPath}}={{.Export}}", "std")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export std: %v\n%s", err, stderr.Bytes())
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}

// lockedImporter delegates to the shared gc importer under its mutex.
type lockedImporter struct{}

func (lockedImporter) Import(path string) (*types.Package, error) {
	return lockedImporter{}.ImportFrom(path, "", 0)
}

func (lockedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if shared.err != nil {
		return nil, shared.err
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	return shared.std.ImportFrom(path, dir, mode)
}

// NewLoader returns an empty loader; register module roots with AddRoot (or
// use LoadModule) before loading. Loaders share one process-wide file set
// and standard-library importer (see sharedImporter).
func NewLoader() *Loader {
	fset, std := sharedImporter()
	return &Loader{fset: fset, std: std, pkgs: make(map[string]*loadEntry)}
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// AddRoot maps the import-path prefix to a directory: the package
// prefix/a/b loads from dir/a/b.
func (l *Loader) AddRoot(prefix, dir string) {
	l.roots = append(l.roots, root{prefix: prefix, dir: dir})
}

// ModulePath reads the module path from dir/go.mod.
func ModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mp := strings.TrimSpace(rest)
			if mp != "" {
				return mp, nil
			}
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", dir)
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// skipDir reports whether a module walk ignores the directory called name:
// testdata, hidden and underscore directories, as the go tool does.
func skipDir(name string) bool {
	return name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadModule registers modRoot as a root and loads every non-test package
// under it (skipping the directories skipDir names), in sorted import-path
// order.
func (l *Loader) LoadModule(modRoot string) ([]*Package, error) {
	modPath, err := ModulePath(modRoot)
	if err != nil {
		return nil, err
	}
	l.AddRoot(modPath, modRoot)
	var paths []string
	err = filepath.WalkDir(modRoot, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if p != modRoot && skipDir(d.Name()) {
			return fs.SkipDir
		}
		ok, err := hasGoFiles(p)
		if err != nil {
			return err
		}
		if ok {
			rel, err := filepath.Rel(modRoot, p)
			if err != nil {
				return err
			}
			ip := modPath
			if rel != "." {
				ip = modPath + "/" + filepath.ToSlash(rel)
			}
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, ip := range paths {
		p, err := l.Load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if goSource(e) {
			return true, nil
		}
	}
	return false, nil
}

func goSource(e fs.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".")
}

// Load parses and type-checks the package at the given import path, which
// must be under one of the registered roots.
func (l *Loader) Load(path string) (*Package, error) {
	for _, r := range l.roots {
		if path == r.prefix {
			return l.load(path, r.dir)
		}
		if rest, ok := strings.CutPrefix(path, r.prefix+"/"); ok {
			return l.load(path, filepath.Join(r.dir, filepath.FromSlash(rest)))
		}
	}
	return nil, fmt.Errorf("import path %q is under no registered root", path)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return e.pkg, e.err
	}
	e := &loadEntry{loading: true}
	l.pkgs[path] = e
	e.pkg, e.err = l.check(path, dir)
	e.loading = false
	return e.pkg, e.err
}

func (l *Loader) check(path, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, ent := range ents {
		if !goSource(ent) {
			continue
		}
		fname := filepath.Join(dir, ent.Name())
		f, err := parser.ParseFile(l.fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths resolve
// through the registered roots; everything else is delegated to the shared
// standard-library importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	for _, r := range l.roots {
		if path == r.prefix || strings.HasPrefix(path, r.prefix+"/") {
			p, err := l.Load(path)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
	}
	return l.std.ImportFrom(path, dir, mode)
}
