package analysis

import (
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"
)

// Allowlist is the checked-in register of permitted panic sites
// (analysis/panic_allowlist.txt). Each entry names a file relative to
// the module root and the enclosing function, separated by whitespace:
//
//	# reason the panic is a programmer-bug invariant
//	internal/perf/evaluator.go Evaluator.LongestPath
//
// Entries are matched exactly; a panic site not listed is a finding,
// and a listed entry that no longer matches any panic site is also a
// finding (stale entries would otherwise grant future panics a free
// pass).
type Allowlist struct {
	Path    string
	entries map[string]*allowEntry
}

type allowEntry struct {
	line int
	used bool
}

// ParseAllowlist reads and validates an allowlist file.
func ParseAllowlist(path string) (*Allowlist, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	al := &Allowlist{Path: path, entries: map[string]*allowEntry{}}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"<file> <function>\", got %q", path, i+1, line)
		}
		key := fields[0] + " " + fields[1]
		if _, dup := al.entries[key]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %q", path, i+1, key)
		}
		al.entries[key] = &allowEntry{line: i + 1}
	}
	return al, nil
}

// EmptyAllowlist is an allowlist with no entries (every panic site is a
// finding). Used when no allowlist file exists.
func EmptyAllowlist() *Allowlist {
	return &Allowlist{entries: map[string]*allowEntry{}}
}

// permit marks the entry for (relFile, fn) used and reports whether it
// exists.
func (al *Allowlist) permit(relFile, fn string) bool {
	e, ok := al.entries[relFile+" "+fn]
	if ok {
		e.used = true
	}
	return ok
}

// stale returns diagnostics for entries no panic site matched, anchored
// at their line in the allowlist file.
func (al *Allowlist) stale() []Diagnostic {
	var out []Diagnostic
	for key, e := range al.entries {
		if e.used {
			continue
		}
		out = append(out, Diagnostic{
			Pos:     token.Position{Filename: al.Path, Line: e.line, Column: 1},
			Pass:    "panicguard",
			Message: fmt.Sprintf("stale allowlist entry %q matches no panic site; remove it", key),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos.Line < out[j].Pos.Line })
	return out
}
