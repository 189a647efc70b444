package summitscale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Reasons shared by several allowlist entries.
const (
	catalogue = "paper catalogue: a documented fact of the paper's machines, models or portfolio, pinned by its test"
	hierModel = "analytic α-β model crosscheck_test holds the live mp.AllReduceHierarchical to"
	setLR     = "implements optim.Optimizer.SetLR, the schedule hook no production loop drives yet"
)

// unreachedAllowed lists exported functions and methods under internal/
// that no non-test code names, and why each stays. Keys are
// "<dir>.<Func>" or "<dir>.<Type>.<Method>". Entries that are not test
// oracles or catalogue facts are the next deletion candidates.
var unreachedAllowed = map[string]string{
	"internal/autograd.ConstantIn":       "arena-backed leaf the TrainStepAlloc <= 45 allocs/op ceiling benchmark runs through",
	"internal/autograd.GradCheck":        "finite-difference oracle of every autograd backward test",
	"internal/tensor.Tensor.Equal":       "tolerance comparison the tensor, autograd and ddl tests assert with",
	"internal/core.RunAllParallel":       "default-engine report the root RunAll benchmarks and the core byte-identity tests run",
	"internal/checkpoint.Store.Versions": "manifest listing the store's retention and refused-drain tests inspect",
	"internal/mp.World.AllocatedLinks":   "link counter TestLinksAllocatedLazily pins the lazy-channel contract with",
	"internal/parallel.WorkerPool.Grain": "chunk-size helper pinned by its test; kernels derive grain from problem shape instead",

	"internal/netsim.SummitHierarchicalFabric":         hierModel,
	"internal/netsim.HierarchicalFabric.AllReduce":     hierModel,
	"internal/netsim.HierarchicalFabric.FlatAllReduce": hierModel,
	"internal/platform.Platform.HierarchicalFabric":    hierModel,

	"internal/machine.Rhea":                              catalogue,
	"internal/machine.Andes":                             catalogue,
	"internal/machine.Machine.PeakTensorFlops":           catalogue,
	"internal/machine.Machine.AggregateNVMeReadBW":       catalogue,
	"internal/models.ByName":                             catalogue,
	"internal/models.ModelSpec.SustainedFlopsPerGPU":     catalogue,
	"internal/portfolio.Dataset.CountByProgram":          catalogue,
	"internal/portfolio.Dataset.AllocationHoursByStatus": catalogue,
	"internal/portfolio.Dataset.SubdomainCounts":         catalogue,
	"internal/mc.LocateTransition":                       "§V-A susceptibility-peak transition locator, tested between the ordered and disordered phases",

	"internal/optim.SGD.SetLR":     setLR,
	"internal/optim.Adam.SetLR":    setLR,
	"internal/optim.LARS.SetLR":    setLR,
	"internal/optim.LAMB.SetLR":    setLR,
	"internal/optim.NewAdamW":      "AdamW variant of the optimizer family, tested for convergence; no model trains with it yet",
	"internal/optim.ClipGradNorm":  "global-norm clipping, tested; no training loop clips yet",
	"internal/optim.LinearScaleLR": "linear batch-scaling rule, tested; no training loop scales its rate yet",

	"internal/data.Render":                     "SMILES token renderer, half of the tested Render/Parse round trip",
	"internal/data.Parse":                      "SMILES tokenizer, half of the tested Render/Parse round trip",
	"internal/ddl.ElasticResult.SimulatedWall": "wall-time pricing of an elastic run, tested; no report prints it yet",
	"internal/des.Resource.InUse":              "resource occupancy accessor pinned by TestResourceInUse",
	"internal/md.System.RadialSamples":         "pair-distance sampler for learned potentials, tested; no workflow trains one yet",
	"internal/md.System.Equilibrate":           "Berendsen NVT equilibration, tested; no workflow equilibrates yet",
	"internal/nn.ParamCount":                   "parameter census the nn and ddl tests size models with",
	"internal/platform.Register":               "registry extension point whose duplicate and validation rejects are tested",
	"internal/stats.Summarize":                 "sample summary pinned by TestSummarize",
	"internal/stats.Sum":                       "slice sum pinned by TestMinMaxSum",
	"internal/topology.FatTree.TotalFlows":     "flow census its test checks routing conservation with",
	"internal/topology.FatTree.PathLinks":      "hop count its test checks the fat-tree layout with",
	"internal/workflow.NewFaultInjector":       "seeded injector the retry and race tests drive; no production workflow injects faults this way",
}

// moduleRoots are the trees whose non-test files count as callers.
var moduleRoots = []string{"internal", "cmd", "examples", "perfbench"}

type exportedFunc struct {
	key  string // dir.Func or dir.Type.Method
	dir  string
	name string
	recv bool
	pos  token.Position
}

// nameUses records the names non-test files use.
type nameUses struct {
	bare      map[string]map[string]bool // dir -> bare identifiers used there
	qualified map[string]map[string]bool // imported dir -> pkg.Name selectors
	selectors map[string]bool            // every other selector name
}

// TestNoUnreachedExports fails when an exported function or method declared
// under internal/ is named by no non-test file of internal/, cmd/,
// examples/ or perfbench/, and when an allowlist entry no longer matches
// such a function. References are by name: a package function counts as
// named by a bare identifier in its own package or by pkg.Name in a file
// importing it; a method counts as named by any selector .Name. A name
// used only inside its own body does not count.
func TestNoUnreachedExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedFunc
	uses := nameUses{bare: map[string]map[string]bool{}, qualified: map[string]map[string]bool{}, selectors: map[string]bool{}}
	for _, root := range moduleRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if root == "internal" {
				decls = append(decls, exportedFuncs(fset, dir, f)...)
			}
			uses.file(dir, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	declared := map[string]bool{}
	var unreached []string
	for _, fn := range decls {
		declared[fn.key] = true
		used := uses.bare[fn.dir][fn.name] || uses.qualified[fn.dir][fn.name]
		if fn.recv {
			used = uses.selectors[fn.name]
		}
		_, allowed := unreachedAllowed[fn.key]
		switch {
		case used && allowed:
			t.Errorf("allowlist entry %s now has a caller; remove the entry", fn.key)
		case !used && !allowed:
			unreached = append(unreached, fn.pos.String()+": "+fn.key)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is named by no non-test code; delete it, move it into the test that needs it, or allowlist it with a reason", u)
	}
	for key := range unreachedAllowed {
		if !declared[key] {
			t.Errorf("allowlist entry %s matches no exported function; remove the entry", key)
		}
	}
}

// exportedFuncs returns the exported functions and methods declared in f.
func exportedFuncs(fset *token.FileSet, dir string, f *ast.File) []exportedFunc {
	var out []exportedFunc
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		fn := exportedFunc{key: dir + "." + fd.Name.Name, dir: dir, name: fd.Name.Name, pos: fset.Position(fd.Pos())}
		if fd.Recv != nil {
			fn.recv = true
			fn.key = dir + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		out = append(out, fn)
	}
	return out
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(e ast.Expr) string {
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

// file records the names f, a file in dir, uses.
func (u nameUses) file(dir string, f *ast.File) {
	imports := map[string]string{} // local package name -> module-relative dir
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		rel, ok := strings.CutPrefix(path, "summitscale/")
		if !ok {
			continue
		}
		name := rel[strings.LastIndex(rel, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = rel
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			u.walk(d, dir, imports, "", false)
			continue
		}
		// The declared name is not a use; the receiver, signature and
		// body are, except for the function naming itself.
		if fd.Recv != nil {
			u.walk(fd.Recv, dir, imports, fd.Name.Name, true)
		}
		u.walk(fd.Type, dir, imports, fd.Name.Name, fd.Recv != nil)
		if fd.Body != nil {
			u.walk(fd.Body, dir, imports, fd.Name.Name, fd.Recv != nil)
		}
	}
}

// walk records the uses under n. Declared names of fields and variables
// are not uses; self is the enclosing function, whose own name is skipped.
func (u nameUses) walk(n ast.Node, dir string, imports map[string]string, self string, method bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Field:
			u.walk(x.Type, dir, imports, self, method)
			return false
		case *ast.ValueSpec:
			if x.Type != nil {
				u.walk(x.Type, dir, imports, self, method)
			}
			for _, v := range x.Values {
				u.walk(v, dir, imports, self, method)
			}
			return false
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if rel, ok := imports[id.Name]; ok {
					mark(u.qualified, rel, x.Sel.Name)
					return false
				}
			}
			if !method || x.Sel.Name != self {
				u.selectors[x.Sel.Name] = true
			}
			u.walk(x.X, dir, imports, self, method)
			return false
		case *ast.Ident:
			if method || x.Name != self {
				mark(u.bare, dir, x.Name)
			}
		}
		return true
	})
}

func mark(m map[string]map[string]bool, k, name string) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	m[k][name] = true
}
