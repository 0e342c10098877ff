// The exported-code guard: every exported function or method declared
// outside tests must be named by some code that is not a test. Code
// only tests call is code every reader still has to read, and nothing
// else stops it from piling up.
package main_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// standardMethods are method names that satisfy interfaces of the
// standard library; the callers of such a method are in that library.
var standardMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteAt": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Set": true, "Get": true,
}

// seams are exported names only tests call, each kept on purpose. The
// key is the declaring directory and the name, a method's as
// Type.Method. An entry whose name gains a caller, or no longer
// exists, fails the test: the list only ever names live seams.
var seams = map[string]string{
	"internal/faults:Injector.AddRule":    "installs a fault rule; fault plans are written only in tests",
	"internal/faults:Injector.DeriveRand": "seeds a scenario's own random stream from the plan's seed",
	"internal/faults:Injector.SetSkew":    "skews the clock seam's Now",
	"internal/faults:Rule.Enable":         "re-arms a rule mid-scenario",
	"internal/faults:Rule.Disable":        "disarms a rule mid-scenario",
	"internal/faults:Rule.Hits":           "counts the ops a rule matched, so a scenario can wait for its fault",
	"internal/faults:Rule.Fired":          "counts the faults a rule applied, so a scenario can wait for its fault",

	"internal/store:SetInstrumentation":  "switches the store's self-metrics off so the overhead test can measure what they cost",
	"internal/store:Cluster.ReplayHints": "replays hints synchronously, so a test need not wait on the background replayer",
	"internal/store:Node.CacheBudget":    "the only view of a node's block-cache capacity; the agent's split of -cache-bytes across its nodes is checked through it",
	"internal/rpc:Server.SetNow":         "installs a skewed clock on the server, the clock seam of internal/faults",
	"internal/rpc:Server.Requests":       "counts the requests a server has served, so a test can assert what a read cost in requests",
	"internal/collectagent:OpenBackend":  "opens an agent data directory from a node count, replication and partitioner, the short form of OpenBackendOptions",
}

// decl is one exported function or method declared outside tests.
type decl struct {
	key string // dir:Name or dir:Type.Name
	pos token.Position
}

func TestExportedFuncsHaveACaller(t *testing.T) {
	fset := token.NewFileSet()
	var decls []decl
	refs := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		declared := !strings.HasSuffix(f.Name.Name, "test") && dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/")
		declNames := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fn.Name] = true
			if !declared || !fn.Name.IsExported() {
				continue
			}
			key := dir + ":" + fn.Name.Name
			if fn.Recv != nil {
				if standardMethods[fn.Name.Name] {
					continue
				}
				key = dir + ":" + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key: key, pos: fset.Position(fn.Name.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				refs[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations; run from the repository root")
	}

	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		name := d.key[strings.LastIndexAny(d.key, ":.")+1:]
		_, allowed := seams[d.key]
		switch {
		case refs[name] == 0 && !allowed:
			t.Errorf("%s:%d %s: exported, and no non-test code names it", d.pos.Filename, d.pos.Line, d.key)
		case refs[name] > 0 && allowed:
			t.Errorf("%s:%d %s: on the seam list, but non-test code names it; take it off the list", d.pos.Filename, d.pos.Line, d.key)
		}
	}
	for key := range seams {
		if !seen[key] {
			t.Errorf("%s: on the seam list, but no longer declared; take it off the list", key)
		}
	}
}

// receiverName is the type name of a method's receiver expression.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
