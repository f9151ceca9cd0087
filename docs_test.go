package proust_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents that describe the system as it is. Every
// test, benchmark and Go identifier they cite must exist in the tree.
var citingDocs = []string{"DESIGN.md", "README.md"}

var (
	// testName matches a cited test or benchmark function, anywhere in the
	// text (inside commands like `go test -run TestX` too). A trailing `*`,
	// `.*` or `…` marks the name as a prefix of one or more functions.
	testName = regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z0-9_][A-Za-z0-9_]*(\.?\*|…)?`)
	// codeSpan matches one backticked span on a line.
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// goIdent matches a span that is a Go identifier or selector chain
	// (`Ctrie.Adopt`, `s.versionCap`, `Run()`). Spans without an upper-case
	// letter (`mvcc`, `quick`) are as likely English or CLI words as Go
	// names, and file names (`stm.go`, `DESIGN.md`) are not names; neither
	// is checked.
	goIdent = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*(?:\(\))?$`)
)

// goSource returns every identifier-shaped word of the Go files under root
// (declarations, references, strings and comments alike) and the names of
// the test and benchmark functions they declare. A renamed test is gone even
// while a comment still carries its old name.
func goSource(t *testing.T, root string) (words, funcs map[string]bool) {
	t.Helper()
	word := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)[A-Za-z0-9_]*)\(`)
	words = make(map[string]bool)
	funcs = make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "docs_test.go" {
			return nil // this file's own comments cite example names
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, w := range word.FindAllString(string(src), -1) {
			words[w] = true
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk Go source: %v", err)
	}
	return words, funcs
}

// TestDocsCiteExistingNames is the doc tripwire: a test or benchmark cited
// in DESIGN.md or README.md that no Go file declares, or a cited Go
// identifier no Go file contains, fails it, naming the document, line and
// name.
func TestDocsCiteExistingNames(t *testing.T) {
	words, funcs := goSource(t, ".")
	hasPrefix := func(p string) bool {
		for f := range funcs {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
		return false
	}
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("read %s: %v", doc, err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range testName.FindAllStringSubmatch(line, -1) {
				name := strings.TrimSuffix(m[0], m[1])
				switch {
				case m[1] != "" && !hasPrefix(name):
					t.Errorf("%s:%d: no test or benchmark starts with %s", doc, i+1, name)
				case m[1] == "" && !funcs[name]:
					t.Errorf("%s:%d: no test or benchmark is named %s (mark a prefix with a trailing *)", doc, i+1, name)
				}
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				span := m[1]
				if !goIdent.MatchString(span) || strings.HasSuffix(span, ".go") || strings.HasSuffix(span, ".md") ||
					strings.ToLower(span) == span {
					continue
				}
				for _, part := range strings.Split(strings.TrimSuffix(span, "()"), ".") {
					if !words[part] {
						t.Errorf("%s:%d: `%s` cites %s, which is not in the Go source", doc, i+1, span, part)
					}
				}
			}
		}
	}
}
