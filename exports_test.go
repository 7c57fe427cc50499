package orthotrees_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportsAllowlist holds the exported names that no program calls
// but that stay anyway, one "pkgpath Name reason note" per line
// (methods as Recv.Name).
const exportsAllowlist = "testdata/exports_allowlist.txt"

// allowReasons maps each ground on which an exported name may stay
// without a non-test caller to the number of packages whose tests
// must name it.
var allowReasons = map[string]int{
	"oracle":    1, // a reference implementation that tests compare against
	"primitive": 1, // a paper primitive whose time the named test checks against its cost formula
	"fixture":   2, // a helper the tests of two or more packages call
	"interface": 0, // a method that satisfies an interface outside the tree
	"roadmap":   0, // a name a ROADMAP item assigns work to
}

// TestExportsHaveCallers is the dead-export ratchet. Every exported
// func, method, type, var and const declared outside bench/ must be
// referenced by some non-test file of the tree (bench/, cmd/ and
// examples/ count as users) or be on the allowlist with a reason. An
// allowlist entry that names nothing, or a name that has since gained
// a caller, fails too, so the list can only shrink. The root package
// is the library's public API and package main exports nothing, so
// neither declares names the ratchet checks.
//
// The scan is by name, not by type: a package-level name counts as
// used when its package refers to it bare or another file refers to it
// through an import of its package, and a method counts as used when
// any selector in the tree has its name. That keeps methods reached
// only through an interface alive, at the price of missing a method
// whose name some other type's method shares.
func TestExportsHaveCallers(t *testing.T) {
	scan := scanExports(t, ".")
	allowed := readExportsAllowlist(t, exportsAllowlist)

	var missing []string
	for key := range scan.unused {
		if _, ok := allowed[key]; !ok {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s (%s): exported, but no non-test file references it; call it, unexport or delete it, or add it to %s with a reason",
			key, scan.unused[key], exportsAllowlist)
	}
	keys := make([]string, 0, len(allowed))
	for key := range allowed {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		e := allowed[key]
		if _, ok := scan.unused[key]; !ok {
			t.Errorf("%s:%d: stale entry %s: the name is gone or now has a non-test caller; delete the line",
				exportsAllowlist, e.line, key)
			continue
		}
		pkg, name, _ := strings.Cut(key, " ")
		if _, method, ok := strings.Cut(name, "."); ok {
			name = method
		}
		if need, got := allowReasons[e.reason], len(scan.testUsers[name]); got < need {
			t.Errorf("%s:%d: %s entry %s: tests of %d packages name it, want %d or more",
				exportsAllowlist, e.line, e.reason, key, got, need)
		}
		if e.reason == "primitive" {
			if test := testNameRE.FindString(e.note); test == "" || !scan.testFuncs[pkg+" "+test] {
				t.Errorf("%s:%d: primitive entry %s must name a test of %s that checks its cost formula (got note %q)",
					exportsAllowlist, e.line, key, pkg, e.note)
			}
		}
	}
}

type allowEntry struct {
	line         int
	reason, note string
}

// readExportsAllowlist parses the allowlist; '#' starts a comment.
func readExportsAllowlist(t *testing.T, file string) map[string]allowEntry {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]allowEntry{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			t.Errorf("%s:%d: want \"pkgpath Name reason note\", got %q", file, n, line)
			continue
		}
		key := fields[0] + " " + fields[1]
		if _, ok := allowReasons[fields[2]]; !ok {
			t.Errorf("%s:%d: reason %q is not one of oracle, primitive, fixture, interface, roadmap", file, n, fields[2])
		}
		if _, dup := out[key]; dup {
			t.Errorf("%s:%d: duplicate entry %s", file, n, key)
		}
		out[key] = allowEntry{line: n, reason: fields[2], note: strings.Join(fields[3:], " ")}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

var testNameRE = regexp.MustCompile(`\bTest[A-Z0-9_]\w*`)

type exportScan struct {
	// unused maps each exported name no non-test file references,
	// keyed "pkgpath Name" or "pkgpath Recv.Name", to its position.
	unused map[string]string
	// testFuncs holds "pkgpath TestName" for every test function.
	testFuncs map[string]bool
	// testUsers maps an identifier to the packages whose test files
	// contain it.
	testUsers map[string]map[string]bool
}

// scanExports parses every Go file under root, the directory of module
// repro.
func scanExports(t *testing.T, root string) exportScan {
	t.Helper()
	type srcFile struct {
		pkg  string // import path
		dir  string // slash path relative to root
		file *ast.File
	}
	fset := token.NewFileSet()
	var files []srcFile
	pkgNames := map[string]string{} // import path → package name
	scan := exportScan{
		unused:    map[string]string{},
		testFuncs: map[string]bool{},
		testUsers: map[string]map[string]bool{},
	}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		pkg := "repro"
		if dir != "." {
			pkg += "/" + dir
		}
		if strings.HasSuffix(p, "_test.go") {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
					scan.testFuncs[pkg+" "+fd.Name.Name] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.IsExported() {
					if scan.testUsers[id.Name] == nil {
						scan.testUsers[id.Name] = map[string]bool{}
					}
					scan.testUsers[id.Name][pkg] = true
				}
				return true
			})
			return nil
		}
		pkgNames[pkg] = f.Name.Name
		files = append(files, srcFile{pkg: pkg, dir: dir, file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]string{} // key → position
	refs := map[string]bool{}       // "pkgpath Name" referenced
	selectors := map[string]bool{}  // every selector name: method uses
	declIdents := map[*ast.Ident]bool{}
	for _, sf := range files {
		checked := sf.dir != "." && sf.dir != "bench" && !strings.HasPrefix(sf.dir, "bench/") && sf.file.Name.Name != "main"
		declare := func(id *ast.Ident, recv string) {
			declIdents[id] = true
			if !checked || !id.IsExported() {
				return
			}
			key := sf.pkg + " " + id.Name
			if recv != "" {
				key = sf.pkg + " " + recv + "." + id.Name
			}
			declared[key] = fset.Position(id.Pos()).String()
		}
		for _, decl := range sf.file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv = receiverName(d.Recv.List[0].Type)
				}
				declare(d.Name, recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name, "")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id, "")
						}
					}
				}
			}
		}
	}
	for _, sf := range files {
		imports := map[string]string{} // local name → import path
		for _, imp := range sf.file.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			local := pkgNames[ipath]
			if local == "" {
				local = path.Base(ipath)
			}
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ipath
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.SelectorExpr:
				selectors[x.Sel.Name] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if ipath, ok := imports[id.Name]; ok {
						refs[ipath+" "+x.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(x.X, visit) // x.Sel is no bare reference
				return false
			case *ast.Ident:
				if !declIdents[x] {
					refs[sf.pkg+" "+x.Name] = true
				}
			}
			return true
		}
		ast.Inspect(sf.file, visit)
	}

	for key, pos := range declared {
		pkg, name, _ := strings.Cut(key, " ")
		if _, method, ok := strings.Cut(name, "."); ok {
			if !selectors[method] {
				scan.unused[key] = pos
			}
			continue
		}
		if !refs[pkg+" "+name] {
			scan.unused[key] = pos
		}
	}
	return scan
}

// receiverName strips the pointer and type parameters off a receiver.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
