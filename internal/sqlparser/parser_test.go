package sqlparser

import (
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

func TestParseSimpleSelect(t *testing.T) {
	stmt, err := Parse("SELECT id, name FROM orders WHERE id > 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Select) != 2 {
		t.Fatalf("select items: %d", len(stmt.Select))
	}
	if stmt.From.Name != "orders" {
		t.Fatalf("from: %v", stmt.From)
	}
	if stmt.Where == nil {
		t.Fatal("where missing")
	}
	if stmt.Limit != -1 {
		t.Fatal("limit should default to -1")
	}
}

func TestParseStar(t *testing.T) {
	stmt := MustParse("SELECT * FROM t")
	if !stmt.Select[0].Star {
		t.Fatal("star not parsed")
	}
}

func TestParseJoinWithOn(t *testing.T) {
	stmt := MustParse("SELECT a.x FROM a JOIN b ON a.id = b.id WHERE b.y < 5")
	if len(stmt.Joins) != 1 || stmt.Joins[0].Table.Name != "b" {
		t.Fatalf("joins: %+v", stmt.Joins)
	}
	on, ok := stmt.Joins[0].On.(*BinaryExpr)
	if !ok || on.Op != OpEq {
		t.Fatalf("on: %v", stmt.Joins[0].On)
	}
}

func TestParseInnerJoinKeyword(t *testing.T) {
	stmt := MustParse("SELECT a.x FROM a INNER JOIN b ON a.id = b.id")
	if len(stmt.Joins) != 1 {
		t.Fatal("inner join not parsed")
	}
}

func TestParseCommaJoin(t *testing.T) {
	stmt := MustParse("SELECT a.x FROM a, b WHERE a.id = b.id")
	if len(stmt.Joins) != 1 {
		t.Fatal("comma join not parsed")
	}
	lit, ok := stmt.Joins[0].On.(*Literal)
	if !ok || !lit.Val.Bool() {
		t.Fatal("comma join should carry ON TRUE")
	}
}

func TestParseGroupByHavingOrderLimit(t *testing.T) {
	stmt := MustParse(`SELECT dept, COUNT(*) AS n, AVG(sal) FROM emp
		WHERE sal > 100 GROUP BY dept HAVING COUNT(*) > 2
		ORDER BY dept DESC, n LIMIT 7`)
	if len(stmt.GroupBy) != 1 {
		t.Fatal("group by")
	}
	if stmt.Having == nil {
		t.Fatal("having")
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Fatalf("order by: %+v", stmt.OrderBy)
	}
	if stmt.Limit != 7 {
		t.Fatal("limit")
	}
	if !stmt.HasAggregates() {
		t.Fatal("aggregates not detected")
	}
	if stmt.Select[1].Alias != "n" {
		t.Fatal("alias not parsed")
	}
}

func TestParseAliases(t *testing.T) {
	stmt := MustParse("SELECT o.id total FROM orders AS o")
	if stmt.From.Alias != "o" || stmt.From.EffectiveName() != "o" {
		t.Fatalf("table alias: %+v", stmt.From)
	}
	if stmt.Select[0].Alias != "total" {
		t.Fatal("implicit column alias")
	}
}

func TestParseDistinct(t *testing.T) {
	if !MustParse("SELECT DISTINCT x FROM t").Distinct {
		t.Fatal("distinct")
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(1 + (2 * 3))" {
		t.Fatalf("precedence: %s", e)
	}
	e, _ = ParseExpr("a = 1 OR b = 2 AND c = 3")
	if e.String() != "((a = 1) OR ((b = 2) AND (c = 3)))" {
		t.Fatalf("bool precedence: %s", e)
	}
}

func TestParseUnaryMinus(t *testing.T) {
	e, err := ParseExpr("-x + 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "(0 - x)") {
		t.Fatalf("unary minus: %s", e)
	}
}

func TestParseInBetweenLikeIsNull(t *testing.T) {
	cases := []string{
		"(x IN (1, 2, 3))",
		"(x NOT IN (1))",
		"(x BETWEEN 1 AND 5)",
		"(x NOT BETWEEN 1 AND 5)",
		"(name LIKE 'a%')",
		"(name NOT LIKE '%z')",
		"(x IS NULL)",
		"(x IS NOT NULL)",
	}
	for _, want := range cases {
		e, err := ParseExpr(want)
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if e.String() != want {
			t.Errorf("round-trip %q -> %q", want, e.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t trailing garbage (",
		"SELECT * FROM t WHERE x NOT 5",
		"SELECT * FROM t WHERE 'unterminated",
		"SELECT * FROM t WHERE x = 1.",
		"SELECT * FROM t WHERE x ? 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStatementRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT * FROM t",
		"SELECT DISTINCT a, b AS c FROM t AS x JOIN u ON (x.id = u.id) WHERE (a > 5) GROUP BY a HAVING (COUNT(*) > 1) ORDER BY a ASC LIMIT 3",
		"SELECT SUM(x.v) FROM big AS x JOIN small AS y ON (x.k = y.k) WHERE (y.p > 100)",
		"SELECT a FROM t WHERE ((a > 1000000.0) AND (b < 2.5E-7))", // prints as 1e+06 and 2.5e-07
	}
	for _, src := range srcs {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		again, err := Parse(stmt.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", stmt.String(), err)
		}
		if again.String() != stmt.String() {
			t.Errorf("not a fixpoint: %q vs %q", stmt.String(), again.String())
		}
	}
}

func TestTablesEnumeration(t *testing.T) {
	stmt := MustParse("SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y")
	tabs := stmt.Tables()
	if len(tabs) != 3 || tabs[0].Name != "a" || tabs[2].Name != "c" {
		t.Fatalf("tables: %+v", tabs)
	}
}

func TestSplitAndJoinConjuncts(t *testing.T) {
	e, _ := ParseExpr("a = 1 AND b = 2 AND c = 3")
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("conjuncts: %d", len(parts))
	}
	re := JoinConjuncts(parts)
	if re.String() != e.String() {
		t.Fatalf("rebuild: %s vs %s", re, e)
	}
	if JoinConjuncts(nil) != nil {
		t.Fatal("empty join should be nil")
	}
	if got := SplitConjuncts(nil); got != nil {
		t.Fatal("nil split should be nil")
	}
}

func TestCollectColumnRefs(t *testing.T) {
	e, _ := ParseExpr("a.x > 1 AND b.y IN (c.z, 2) AND u BETWEEN v AND w AND s LIKE 'p%' AND NOT q IS NULL AND SUM(m) > 0")
	refs := CollectColumnRefs(e, nil)
	names := map[string]bool{}
	for _, r := range refs {
		names[r.String()] = true
	}
	for _, want := range []string{"a.x", "b.y", "c.z", "u", "v", "w", "s", "q", "m"} {
		if !names[want] {
			t.Errorf("missing ref %s (got %v)", want, names)
		}
	}
}

func TestLexComments(t *testing.T) {
	stmt, err := Parse("SELECT x -- a comment\nFROM t")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.From.Name != "t" {
		t.Fatal("comment handling")
	}
}

func TestLiteralKinds(t *testing.T) {
	stmt := MustParse("SELECT 1, 2.5, 'hi', TRUE, FALSE, NULL FROM t")
	kinds := []sqltypes.Kind{
		sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString,
		sqltypes.KindBool, sqltypes.KindBool, sqltypes.KindNull,
	}
	for i, want := range kinds {
		lit, ok := stmt.Select[i].Expr.(*Literal)
		if !ok || lit.Val.Kind() != want {
			t.Errorf("item %d: %v, want kind %v", i, stmt.Select[i].Expr, want)
		}
	}
}

func TestCanonicalizeSQL(t *testing.T) {
	a := CanonicalizeSQL("SELECT x FROM t WHERE y > 100 AND s = 'abc'")
	b := CanonicalizeSQL("SELECT x FROM t WHERE y > 999 AND s = 'zzz'")
	if a != b {
		t.Fatalf("instances must share canonical form: %q vs %q", a, b)
	}
	if !strings.Contains(a, "?") {
		t.Fatalf("literals must become placeholders: %q", a)
	}
	c := CanonicalizeSQL("SELECT x FROM u WHERE y > 100")
	if a == c {
		t.Fatal("different statements must differ")
	}
	// Keywords upper-case, whitespace collapses.
	if got := CanonicalizeSQL("this   is \t not sql"); got != "this IS NOT sql" {
		t.Fatalf("lexed canonical form: %q", got)
	}
	// Unlexable input falls back to whitespace collapsing.
	if got := CanonicalizeSQL("a  ??  b"); got != "a ?? b" {
		t.Fatalf("fallback: %q", got)
	}
	// ... over the lexer's whitespace only, keeping the newline that ends a
	// comment: either change would make the fallback's output lexable, and
	// its canonical form another string.
	for src, want := range map[string]string{"00\f": "00\f", "a -- c \n\t?": "a -- c\n?"} {
		if got := CanonicalizeSQL(src); got != want || CanonicalizeSQL(got) != got {
			t.Errorf("fallback of %q: %q, which canonicalizes to %q; want %q", src, got, CanonicalizeSQL(got), want)
		}
	}
}

func TestCanonicalizeSQLParameterVariants(t *testing.T) {
	// Every literal kind — ints, floats, strings, and negative numbers via a
	// unary minus — must collapse to the same placeholder, so parameter
	// variants share one canonical form (and thus one plan cache entry and
	// one calibration identity).
	variants := []string{
		"SELECT x FROM t WHERE y > 100",
		"SELECT x FROM t WHERE y > 2.5",
		"SELECT x FROM t WHERE y > -100",
		"SELECT x FROM t WHERE y > -2.5",
		"select x from t where y > 'k'",
	}
	want := CanonicalizeSQL(variants[0])
	for _, v := range variants[1:] {
		if got := CanonicalizeSQL(v); got != want {
			t.Errorf("%q: canonical %q, want %q", v, got, want)
		}
	}
	// A binary minus is arithmetic, not a sign: it must survive, and its own
	// parameter variants must share a form distinct from the plain
	// comparison.
	bin := CanonicalizeSQL("SELECT x FROM t WHERE y - 5 > 100")
	if !strings.Contains(bin, "-") {
		t.Fatalf("binary minus folded away: %q", bin)
	}
	if bin == want {
		t.Fatalf("subtraction and comparison must differ: %q", bin)
	}
	if b2 := CanonicalizeSQL("SELECT x FROM t WHERE y - 50 > 1"); b2 != bin {
		t.Fatalf("binary-minus variants must share form: %q vs %q", b2, bin)
	}
	// A closing paren terminates an operand, so the minus after it is binary.
	if got := CanonicalizeSQL("SELECT ( y ) - 5 FROM t"); !strings.Contains(got, "-") {
		t.Fatalf("minus after paren folded away: %q", got)
	}
	// Lex errors (unterminated string) fall back to whitespace collapsing.
	if got := CanonicalizeSQL("SELECT 'oops  FROM t"); got != "SELECT 'oops FROM t" {
		t.Fatalf("lex-error fallback: %q", got)
	}
}
