package sqlparser

import "strings"

// CanonicalizeSQL normalizes a statement for use as a calibration key:
// literals become '?', keywords upper-case, whitespace collapses. Queries
// that differ only in parameter values share a canonical form, so a
// calibration factor learned from some instances of a query type applies to
// future, yet-unseen instances — the generalization §3.1 relies on.
//
// Input the lexer rejects keeps its text with the whitespace collapsed (see
// collapseSpace); the function never fails.
func CanonicalizeSQL(src string) string {
	toks, err := lex(src)
	if err != nil {
		return collapseSpace(src)
	}
	parts := make([]string, 0, len(toks))
	for i, t := range toks {
		switch t.kind {
		case tokEOF:
		case tokInt, tokFloat, tokString:
			parts = append(parts, "?")
		case tokSymbol:
			// Fold a unary minus into the literal's placeholder: "x > -5" and
			// "x > 5" are parameter variants of the same query type and must
			// share a canonical form. The minus is binary — and kept — only
			// when the preceding token can terminate an operand.
			if t.text == "-" && i+1 < len(toks) &&
				(toks[i+1].kind == tokInt || toks[i+1].kind == tokFloat) &&
				!operandBefore(toks, i) {
				continue
			}
			parts = append(parts, t.text)
		default:
			parts = append(parts, t.text)
		}
	}
	return strings.Join(parts, " ")
}

// operandBefore reports whether the token before position i can terminate an
// operand, which makes a following '-' a binary subtraction rather than a
// sign.
func operandBefore(toks []token, i int) bool {
	if i == 0 {
		return false
	}
	switch p := toks[i-1]; p.kind {
	case tokIdent, tokInt, tokFloat, tokString:
		return true
	case tokSymbol:
		return p.text == ")"
	default:
		return false
	}
}

// collapseSpace drops leading and trailing runs of the lexer's whitespace and
// turns every other run into one newline when it holds one (a newline ends a
// -- comment) and one space otherwise. The lexer then rejects the result
// where it rejected src, so the result is its own canonical form: only what
// the lexer skips changes, and every comment still ends where it ended.
func collapseSpace(src string) string {
	var b strings.Builder
	run, newline := false, false
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case ' ', '\t', '\r', '\n':
			run, newline = true, newline || c == '\n'
		default:
			if run && b.Len() > 0 {
				if newline {
					b.WriteByte('\n')
				} else {
					b.WriteByte(' ')
				}
			}
			run, newline = false, false
			b.WriteByte(c)
		}
	}
	return b.String()
}
