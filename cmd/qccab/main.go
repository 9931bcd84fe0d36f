// Command qccab compares the wall time and CPU time of qccbench at two
// commits of this repository: a paired A/B run that a wall-time claim can
// cite.
//
//	qccab -a HEAD~1 -b HEAD -n 10 -exp all -scale 1
//
// It extracts each commit with `git archive <rev> | tar -x` into a
// temporary directory (nothing is written under the checkout), builds
// qccbench there, and runs the two binaries n times each, alternating, with
// the first side swapped every pair. Every pair's standard output must be
// byte-identical: a change that claims to keep the studies' answers keeps
// them. It prints one JSON line: the median and quartiles of each side's wall
// time and user+sys CPU time, how many pairs B won, the two-sided sign
// test's p-value for each, and how many pairs' outputs differed. For each pair
// that differs it names the first differing line of each side on standard
// error. The exit status is 1 when a pair's outputs differ.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(ab()) }

// ab runs the comparison and returns the exit status.
func ab() int {
	repo := flag.String("repo", ".", "the git checkout to take the commits from")
	a := flag.String("a", "HEAD~1", "commit A (the parent)")
	b := flag.String("b", "HEAD", "commit B (the change)")
	n := flag.Int("n", 10, "pairs of runs")
	exp := flag.String("exp", "all", "qccbench -exp")
	scale := flag.Int("scale", 1, "qccbench -scale")
	flag.Parse()
	if *n < 1 {
		return failed(fmt.Errorf("qccab: -n must be at least 1"))
	}

	tmp, err := os.MkdirTemp("", "qccab-")
	if err != nil {
		return failed(err)
	}
	defer os.RemoveAll(tmp)
	var sides [2]side
	for i, rev := range []string{*a, *b} {
		if sides[i], err = build(*repo, rev, filepath.Join(tmp, strconv.Itoa(i))); err != nil {
			return failed(err)
		}
	}

	args := []string{"-exp", *exp, "-scale", strconv.Itoa(*scale)}
	differing := 0
	for p := 0; p < *n; p++ {
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		var out [2][]byte
		for _, s := range order {
			if out[s], err = sides[s].run(args); err != nil {
				return failed(err)
			}
		}
		if line, la, lb := firstDiff(out[0], out[1]); line > 0 {
			differing++
			fmt.Fprintf(os.Stderr, "qccab: pair %d: the standard outputs differ first at line %d\n  a: %q\n  b: %q\n", p, line, la, lb)
		}
	}

	line, err := json.Marshal(report{A: sides[0].rev, B: sides[1].rev, Exp: *exp, Scale: *scale, Pairs: *n,
		Identical: differing == 0, Differing: differing,
		Wall: compare(sides[0].wall, sides[1].wall), CPU: compare(sides[0].cpu, sides[1].cpu)})
	if err != nil {
		return failed(err)
	}
	fmt.Println(string(line))
	if differing > 0 {
		return 1
	}
	return 0
}

// firstDiff returns the number (from 1) of the first line at which a and b
// differ, with that line of each ("" past the end of one), or 0 when a and b
// are byte-identical. A missing final newline is a difference of the last
// line.
func firstDiff(a, b []byte) (line int, la, lb string) {
	if bytes.Equal(a, b) {
		return 0, "", ""
	}
	for line = 1; ; line++ {
		ra, restA, endA := bytes.Cut(a, []byte("\n"))
		rb, restB, endB := bytes.Cut(b, []byte("\n"))
		if !bytes.Equal(ra, rb) || endA != endB {
			return line, string(ra), string(rb)
		}
		a, b = restA, restB
	}
}

// side is one commit's qccbench binary and the seconds of its runs.
type side struct {
	rev, bin  string
	wall, cpu []float64
}

// build extracts rev of repo into dir and builds qccbench there.
func build(repo, rev, dir string) (side, error) {
	sha, err := exec.Command("git", "-C", repo, "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return side{}, fmt.Errorf("qccab: resolve %s: %w", rev, err)
	}
	s := side{rev: strings.TrimSpace(string(sha)), bin: filepath.Join(dir, "qccbench")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return side{}, err
	}
	archive := exec.Command("git", "-C", repo, "archive", s.rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return side{}, err
	}
	if err := untar.Start(); err != nil {
		return side{}, err
	}
	// tar ends when git archive closes the pipe, whether or not it failed.
	archiveErr, untarErr := archive.Run(), untar.Wait()
	if archiveErr != nil {
		return side{}, fmt.Errorf("qccab: git archive %s: %w", rev, archiveErr)
	}
	if untarErr != nil {
		return side{}, fmt.Errorf("qccab: extract %s: %w", rev, untarErr)
	}
	gobuild := exec.Command("go", "build", "-o", s.bin, "./cmd/qccbench")
	gobuild.Dir = dir
	gobuild.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := gobuild.CombinedOutput(); err != nil {
		return side{}, fmt.Errorf("qccab: build %s: %w\n%s", rev, err, out)
	}
	return s, nil
}

// run runs the binary once and records its wall and user+sys seconds.
func (s *side) run(args []string) ([]byte, error) {
	cmd := exec.Command(s.bin, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("qccab: %s %s: %w", s.bin, strings.Join(args, " "), err)
	}
	s.wall = append(s.wall, time.Since(start).Seconds())
	ps := cmd.ProcessState
	s.cpu = append(s.cpu, (ps.UserTime() + ps.SystemTime()).Seconds())
	return out.Bytes(), nil
}

// failed reports err and returns the exit status of a run that could not
// compare.
func failed(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 2
}
