package fedqcc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameExistingTests reads the CI workflow and checks that
// every alternative of every `go test -run` pattern, and every `-fuzz`
// target, matches a Test, Fuzz or Example function in the packages its
// command lists, the way `go test` matches them. A renamed or deleted test
// would otherwise drop out of its CI step without a failure.
func TestCIRunPatternsNameExistingTests(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked, stale := staleCINames(t, string(yml))
	for _, s := range stale {
		t.Error(s)
	}
	if checked < 30 {
		t.Fatalf("only %d names checked: the workflow parser no longer finds the -run patterns", checked)
	}

	// The checker itself must notice a name that matches nothing.
	_, stale = staleCINames(t, "run: go test -run 'TestCIRunPatternsNameExistingTests|TestNoSuchTest' ./\n")
	if len(stale) != 1 || !strings.Contains(stale[0], "TestNoSuchTest") {
		t.Fatalf("a stale alternative went unreported: %q", stale)
	}
}

// staleCINames checks every go test command in the workflow text and returns
// how many names it checked and a line for each that matches nothing.
func staleCINames(t *testing.T, yml string) (checked int, stale []string) {
	t.Helper()
	funcs := map[string][]string{} // package dir -> its test function names
	for _, line := range strings.Split(yml, "\n") {
		for _, cmd := range strings.Split(line, "&&") {
			_, args, ok := strings.Cut(cmd, "go test ")
			if !ok {
				continue
			}
			run, fuzz, pkgs := goTestFlags(args)
			if fuzz != "" || strings.Contains(args, "-bench") {
				run = "" // -run only deselects tests beside -fuzz and -bench
			}
			var names []string
			for _, pkg := range pkgs {
				if _, ok := funcs[pkg]; !ok {
					funcs[pkg] = testFuncs(t, pkg)
				}
				names = append(names, funcs[pkg]...)
			}
			var patterns []string
			if run != "" {
				patterns = topLevelAlternatives(run)
			}
			if fuzz != "" {
				patterns = append(patterns, fuzz)
			}
			for _, p := range patterns {
				checked++
				re, err := regexp.Compile(p)
				if err != nil {
					stale = append(stale, "bad pattern "+p+": "+err.Error())
					continue
				}
				if !matchesAny(re, names) {
					stale = append(stale, p+" matches no test in "+strings.Join(pkgs, " "))
				}
			}
		}
	}
	return checked, stale
}

// goTestFlags pulls the -run and -fuzz values and the package arguments out
// of a go test command line (single-quoted values unquoted).
func goTestFlags(args string) (run, fuzz string, pkgs []string) {
	fields := strings.Fields(args)
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		name, val, hasVal := strings.Cut(f, "=")
		if (name == "-run" || name == "-fuzz") && !hasVal && i+1 < len(fields) {
			i++
			val = fields[i]
		}
		val = strings.Trim(val, "'\"")
		switch {
		case name == "-run":
			run = val
		case name == "-fuzz":
			fuzz = val
		case strings.HasPrefix(f, "./") && !strings.HasSuffix(f, "..."):
			pkgs = append(pkgs, f)
		}
	}
	return run, fuzz, pkgs
}

// topLevelAlternatives splits a -run pattern as go test does: into its
// top-level '|' alternatives, each cut at its first top-level '/' (the part
// that selects top-level tests).
func topLevelAlternatives(s string) []string {
	var out []string
	brackets, parens, start, cut := 0, 0, 0, -1
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			brackets++
		case ']':
			brackets = max(brackets-1, 0)
		case '(':
			if brackets == 0 {
				parens++
			}
		case ')':
			if brackets == 0 {
				parens--
			}
		case '\\':
			i++
		case '/':
			if brackets == 0 && parens == 0 && cut < 0 {
				cut = i
			}
		case '|':
			if brackets == 0 && parens == 0 {
				out = append(out, alternative(s, start, cut, i))
				start, cut = i+1, -1
			}
		}
	}
	return append(out, alternative(s, start, cut, len(s)))
}

func alternative(s string, start, cut, end int) string {
	if cut >= 0 {
		end = cut
	}
	return s[start:end]
}

// testFuncs lists the Test, Fuzz and Example functions of a package
// directory's test files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("package %s: no test files (%v)", dir, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			if n := fn.Name.Name; strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Fuzz") || strings.HasPrefix(n, "Example") {
				names = append(names, n)
			}
		}
	}
	return names
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
