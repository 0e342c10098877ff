// The exported-code guard: every exported function or method declared
// outside tests must be used by some code that is not a test. Code only
// tests call is code every reader still has to read, and nothing else
// stops it from piling up.
//
// Uses are resolved by type, not by name: both modules are type-checked
// from source (non-test files only, the standard library from the
// export data `go list -export` leaves in the build cache), and a
// declaration counts as used only when non-test code refers to that
// very declaration. A method also counts when non-test code calls an
// interface method its receiver implements, or when its receiver
// implements a standard-library interface with that method: the callers
// of such a method are in that library.
package main_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdInterfaces are the standard-library interfaces whose methods the
// standard library itself calls: fmt's printing, errors, I/O, HTTP
// serving, sorting, heaps, flags and the marshalers.
var stdInterfaces = []string{
	"error",
	"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter",
	"io.Reader", "io.Writer", "io.Closer", "io.Seeker",
	"io.ReaderAt", "io.WriterAt", "io.ReaderFrom", "io.WriterTo",
	"net/http.Handler", "sort.Interface", "container/heap.Interface",
	"flag.Value", "flag.Getter",
	"encoding.TextMarshaler", "encoding.TextUnmarshaler",
	"encoding.BinaryMarshaler", "encoding.BinaryUnmarshaler",
	"encoding/json.Marshaler", "encoding/json.Unmarshaler",
}

// seams are exported names only tests call, each kept on purpose. The
// key is the declaring directory and the name, a method's as
// Type.Method. An entry whose declaration gains a caller, or that names
// no declaration, fails the test: the list only ever names live seams.
var seams = map[string]string{
	"internal/faults:New":                 "builds an injector from a seed; fault plans are written only in tests",
	"internal/faults:Injector.Dial":       "dials through the injector's network faults, the dialer seam a scenario hands to a client",
	"internal/faults:Injector.FS":         "the injector's disk faults as the fsutil.Disk seam a scenario hands to a node",
	"internal/faults:Injector.Seed":       "the plan's seed, logged by a scenario so its failure reproduces",
	"internal/faults:Injector.AddRule":    "installs a fault rule; fault plans are written only in tests",
	"internal/faults:Injector.DeriveRand": "seeds a scenario's own random stream from the plan's seed",
	"internal/faults:Injector.SetSkew":    "skews the clock seam's Now",
	"internal/faults:Injector.Now":        "the skewed clock a scenario installs as a server's or client's clock seam",
	"internal/faults:Rule.Enable":         "re-arms a rule mid-scenario",
	"internal/faults:Rule.Disable":        "disarms a rule mid-scenario",
	"internal/faults:Rule.Hits":           "counts the ops a rule matched, so a scenario can wait for its fault",
	"internal/faults:Rule.Fired":          "counts the faults a rule applied, so a scenario can wait for its fault",

	"internal/sim/bacnet:NewServer":      "the simulated BACnet device the bacnetplug plugin is tested against",
	"internal/sim/bacnet:Server.Listen":  "serves the simulated BACnet device on a loopback UDP port",
	"internal/sim/ipmi:NewServer":        "the simulated BMC the ipmiplug plugin is tested against",
	"internal/sim/ipmi:Server.AddSensor": "gives the simulated BMC a sensor to serve",
	"internal/sim/ipmi:Server.Listen":    "serves the simulated BMC on a loopback UDP port",

	"internal/store:SetInstrumentation":  "switches the store's self-metrics off so the overhead test can measure what they cost",
	"internal/store:Cluster.ReplayHints": "replays hints synchronously, so a test need not wait on the background replayer",
	"internal/rpc:Server.SetNow":         "installs a skewed clock on the server, the clock seam of internal/faults",
	"internal/rpc:Server.Requests":       "counts the requests a server has served, so a test can assert what a read cost in requests",
}

func TestExportedFuncsHaveACaller(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, std, err := loadModules(fset, ".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	decls := resolve(fset, pkgs, std)
	if len(decls) == 0 {
		t.Fatal("found no exported declarations; run from the repository root")
	}
	for _, p := range guardVerdict(decls, seams) {
		t.Error(p)
	}
}

// pkg is one type-checked package of non-test files.
type pkg struct {
	dir      string // slash-separated, relative to the repository root
	files    []*ast.File
	info     *types.Info
	declares bool // its exported declarations are checked
	uses     bool // its uses count as non-test uses
}

// exported is one exported function or method a checked package
// declares.
type exported struct {
	key  string // dir:Name or dir:Type.Name
	pos  token.Position
	used bool
}

// listed is the part of `go list -json` output the guard reads.
type listed struct {
	ImportPath, Dir, Name, Export string
	Standard                      bool
	GoFiles                       []string
	Module                        *struct{ Dir string }
}

// goList lists the packages the patterns name, with their
// dependencies, dependencies first, as the go command in dir sees them.
func goList(dir string, patterns ...string) ([]listed, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Name,Export,Standard,GoFiles,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var list []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var l listed
		if err := dec.Decode(&l); err == io.EOF {
			return list, nil
		} else if err != nil {
			return nil, err
		}
		list = append(list, l)
	}
}

// loadModules type-checks the non-test files of the module at root and
// of the module in its sub directory, dependencies first, and looks up
// the standard-library interfaces. The root module's packages declare;
// every package whose name does not end in "test" uses.
func loadModules(fset *token.FileSet, root, sub string) ([]*pkg, []*types.Interface, error) {
	list, err := goList(root, append([]string{"./..."}, stdImports()...)...)
	if err != nil {
		return nil, nil, err
	}
	subList, err := goList(filepath.Join(root, sub), "./...")
	if err != nil {
		return nil, nil, err
	}
	list = append(list, subList...)
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	imp := newChecker(fset, list)
	var pkgs []*pkg
	for _, l := range list {
		if l.Standard || len(l.GoFiles) == 0 || imp.checked[l.ImportPath] != nil {
			continue
		}
		rel, err := filepath.Rel(absRoot, l.Dir)
		if err != nil {
			return nil, nil, err
		}
		var files []*ast.File
		for _, name := range l.GoFiles {
			src, err := os.ReadFile(filepath.Join(l.Dir, name))
			if err != nil {
				return nil, nil, err
			}
			f, err := parser.ParseFile(fset, filepath.Join(rel, name), src, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		p, err := imp.check(l.ImportPath, files)
		if err != nil {
			return nil, nil, err
		}
		p.dir = filepath.ToSlash(rel)
		p.uses = !strings.HasSuffix(l.Name, "test")
		p.declares = p.uses && l.Module.Dir == absRoot
		pkgs = append(pkgs, p)
	}
	std, err := imp.interfaces(stdInterfaces)
	return pkgs, std, err
}

// stdImports are the packages that declare the standard-library
// interfaces.
func stdImports() []string {
	var paths []string
	for _, name := range stdInterfaces {
		if i := strings.LastIndex(name, "."); i >= 0 {
			paths = append(paths, name[:i])
		}
	}
	return paths
}

// checker type-checks packages from source against the packages it
// checked before and the export data of the rest.
type checker struct {
	fset    *token.FileSet
	gc      types.Importer
	checked map[string]*types.Package
}

// newChecker makes a checker that imports the listed packages it has
// not checked from their export data.
func newChecker(fset *token.FileSet, list []listed) *checker {
	exports := map[string]string{}
	for _, l := range list {
		if l.Export != "" {
			exports[l.ImportPath] = l.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}
	return &checker{fset: fset, gc: importer.ForCompiler(fset, "gc", lookup), checked: map[string]*types.Package{}}
}

func (c *checker) Import(path string) (*types.Package, error) {
	if p := c.checked[path]; p != nil {
		return p, nil
	}
	return c.gc.Import(path)
}

func (c *checker) check(path string, files []*ast.File) (*pkg, error) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	tp, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.checked[path] = tp
	return &pkg{files: files, info: info}, nil
}

// interfaces looks up interfaces named "error" or "<import path>.Name".
func (c *checker) interfaces(names []string) ([]*types.Interface, error) {
	var out []*types.Interface
	for _, name := range names {
		scope, obj := types.Universe, name
		if i := strings.LastIndex(name, "."); i >= 0 {
			p, err := c.Import(name[:i])
			if err != nil {
				return nil, err
			}
			scope, obj = p.Scope(), name[i+1:]
		}
		tn, ok := scope.Lookup(obj).(*types.TypeName)
		if !ok || !types.IsInterface(tn.Type()) {
			return nil, fmt.Errorf("%s is not an interface", name)
		}
		out = append(out, tn.Type().Underlying().(*types.Interface))
	}
	return out, nil
}

// resolve lists the exported functions and methods the declaring
// packages declare, sorted by key. A declaration is used when a using
// package refers to it, or when a type declared in a using package
// answers with it an interface method that is called: a method of std,
// or one a using package calls.
func resolve(fset *token.FileSet, pkgs []*pkg, std []*types.Interface) []exported {
	used := map[*types.Func]bool{}
	called := map[*types.Interface]map[string]bool{}
	call := func(iface *types.Interface, name string) {
		if !token.IsExported(name) {
			return // only an exported method is checked
		}
		if called[iface] == nil {
			called[iface] = map[string]bool{}
		}
		called[iface][name] = true
	}
	for _, iface := range std {
		for i := 0; i < iface.NumMethods(); i++ {
			call(iface, iface.Method(i).Name())
		}
	}
	for _, p := range pkgs {
		if !p.uses {
			continue
		}
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					call(recv.Type().Underlying().(*types.Interface), fn.Name())
				}
			}
		}
	}
	for _, p := range pkgs {
		if !p.uses {
			continue
		}
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for iface, names := range called {
				if !types.Implements(ptr, iface) {
					continue
				}
				methods := types.NewMethodSet(ptr)
				for name := range names {
					used[methods.Lookup(nil, name).Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}

	var decls []exported
	for _, p := range pkgs {
		if !p.declares {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				key := p.dir + ":" + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					key = p.dir + ":" + receiverName(recv.Type()) + "." + fn.Name()
				}
				decls = append(decls, exported{key: key, pos: fset.Position(fd.Name.Pos()), used: used[fn]})
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	return decls
}

// receiverName is the name of a method's receiver type.
func receiverName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// guardVerdict lists what the guard fails on: an unused declaration off
// the seam list, a used one on it, and an entry that names nothing.
func guardVerdict(decls []exported, seams map[string]string) []string {
	var problems []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		_, allowed := seams[d.key]
		switch {
		case !d.used && !allowed:
			problems = append(problems, fmt.Sprintf("%s:%d %s: exported, and no non-test code uses it", d.pos.Filename, d.pos.Line, d.key))
		case d.used && allowed:
			problems = append(problems, fmt.Sprintf("%s:%d %s: on the seam list, but non-test code uses it; take it off the list", d.pos.Filename, d.pos.Line, d.key))
		}
	}
	var gone []string
	for key := range seams {
		if !seen[key] {
			gone = append(gone, fmt.Sprintf("%s: on the seam list, but no longer declared; take it off the list", key))
		}
	}
	sort.Strings(gone)
	return append(problems, gone...)
}

// TestGuardResolver runs the resolver on two small packages: lib
// declares, app uses.
func TestGuardResolver(t *testing.T) {
	const lib = `package lib

import "fmt"

type List struct{ n int }

func (l *List) Len() int { return l.n }

// Set.Len shares its name with List.Len, which app calls.
type Set struct{ n int }

func (s *Set) Len() int { return s.n }

type Sizer interface{ Size() int }

type Ring struct{ n int }

func (r *Ring) Size() int { return r.n }

type Temp float64

func (t Temp) String() string { return fmt.Sprintf("%.1f C", float64(t)) }

func Parse(s string) int { return len(s) }

func Unused() {}
`
	const app = `package app

import (
	"fmt"

	"x/lib"
)

func Run(s lib.Sizer) {
	var l lib.List
	fmt.Println(l.Len(), s.Size(), lib.Temp(20), lib.Parse("x"))
	Run(&lib.Ring{})
}
`
	list, err := goList(".", stdImports()...)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := newChecker(fset, list)
	var pkgs []*pkg
	for _, src := range []struct{ path, code string }{{"x/lib", lib}, {"x/app", app}} {
		f, err := parser.ParseFile(fset, src.path+"/src.go", src.code, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		p, err := imp.check(src.path, []*ast.File{f})
		if err != nil {
			t.Fatal(err)
		}
		p.dir, p.uses, p.declares = src.path, true, src.path == "x/lib"
		pkgs = append(pkgs, p)
	}
	std, err := imp.interfaces(stdInterfaces)
	if err != nil {
		t.Fatal(err)
	}
	decls := resolve(fset, pkgs, std)

	want := map[string]bool{
		"x/lib:List.Len":    true,
		"x/lib:Set.Len":     false, // test-only, though a used method has its name
		"x/lib:Ring.Size":   true,  // called only through Sizer
		"x/lib:Temp.String": true,  // called only by fmt
		"x/lib:Parse":       true,  // used as lib.Parse from app
		"x/lib:Unused":      false,
	}
	got := map[string]bool{}
	for _, d := range decls {
		got[d.key] = d.used
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("used:\n got %v\nwant %v", got, want)
	}

	problems := guardVerdict(decls, map[string]string{
		"x/lib:Set.Len":  "kept on purpose",
		"x/lib:List.Len": "has gained a caller",
		"x/lib:Gone":     "names nothing",
	})
	wantProblems := []string{
		"x/lib/src.go:7 x/lib:List.Len: on the seam list, but non-test code uses it; take it off the list",
		"x/lib/src.go:26 x/lib:Unused: exported, and no non-test code uses it",
		"x/lib:Gone: on the seam list, but no longer declared; take it off the list",
	}
	if strings.Join(problems, "\n") != strings.Join(wantProblems, "\n") {
		t.Errorf("verdict:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(wantProblems, "\n"))
	}
}
