package sqlparser_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// FuzzParseRoundTrip drives the parser with mutated statements: Parse must
// never panic, and a statement it accepts must print as text that parses back
// to a statement printing the same text (Parse ∘ String is a fixed point). The
// seed corpus is the paper workload's templates and 200 random federated
// queries; minimized inputs of fixed bugs live in testdata/fuzz.
func FuzzParseRoundTrip(f *testing.F) {
	for _, qt := range workload.Types() {
		for _, sql := range workload.Instances(qt, 3) {
			f.Add(sql)
		}
	}
	r := rand.New(rand.NewSource(1))
	for range 200 {
		f.Add(experiment.RandomQuery(r))
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sqlparser.Parse(src)
		if err != nil {
			return
		}
		text := stmt.String()
		again, err := sqlparser.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) printed %q, which prints as %q", src, text, got)
		}
	})
}

// FuzzCanonicalizeSQL drives CanonicalizeSQL with mutated statements: its
// output must be its own canonical form (canonicalizing twice changes
// nothing), and for a statement that parses, the output with every '?'
// bound to a literal must parse too (a string after LIKE, whose pattern must
// be one; an integer anywhere else, LIMIT included). The seed corpus is
// FuzzParseRoundTrip's.
func FuzzCanonicalizeSQL(f *testing.F) {
	for _, qt := range workload.Types() {
		for _, sql := range workload.Instances(qt, 3) {
			f.Add(sql)
		}
	}
	r := rand.New(rand.NewSource(1))
	for range 200 {
		f.Add(experiment.RandomQuery(r))
	}
	f.Fuzz(func(t *testing.T, src string) {
		canon := sqlparser.CanonicalizeSQL(src)
		if again := sqlparser.CanonicalizeSQL(canon); again != canon {
			t.Fatalf("CanonicalizeSQL(%q) = %q, which canonicalizes to %q", src, canon, again)
		}
		if _, err := sqlparser.Parse(src); err != nil {
			return
		}
		words := strings.Split(canon, " ")
		for i, w := range words {
			switch {
			case w != "?":
			case i > 0 && words[i-1] == "LIKE":
				words[i] = "'x'"
			default:
				words[i] = "1"
			}
		}
		bound := strings.Join(words, " ")
		if _, err := sqlparser.Parse(bound); err != nil {
			t.Fatalf("Parse(%q) succeeds, but its canonical form %q bound as %q does not parse: %v", src, canon, bound, err)
		}
	})
}
