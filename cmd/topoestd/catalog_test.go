package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// catalogFamilies parses the metric catalog table of DESIGN.md into family
// names. A row's first cell lists backticked names: a trailing {label,…}
// set is dropped, an inner {a,b} group expands to one name per
// alternative, and "`a` / `b`" or "`a`, `b`" list several families.
func catalogFamilies(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "Metric catalog")
	if !ok {
		t.Fatal("DESIGN.md has no metric catalog")
	}
	tick := regexp.MustCompile("`([^`]+)`")
	group := regexp.MustCompile(`\{([^}]*)\}`)
	var names []string
	inTable := false
	for _, line := range strings.Split(table, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break // the table ends at its first non-table line
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.HasPrefix(strings.TrimSpace(cells[1]), "-") || strings.TrimSpace(cells[1]) == "Family" {
			continue
		}
		for _, m := range tick.FindAllStringSubmatch(cells[1], -1) {
			name := m[1]
			if strings.HasSuffix(name, "}") {
				name = name[:strings.LastIndex(name, "{")] // a label set
			}
			expanded := []string{name}
			if loc := group.FindStringSubmatchIndex(name); loc != nil {
				expanded = nil
				for _, alt := range strings.Split(name[loc[2]:loc[3]], ",") {
					expanded = append(expanded, name[:loc[0]]+alt+name[loc[1]:])
				}
			}
			names = append(names, expanded...)
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// TestMetricCatalogMatchesRegistry keeps DESIGN.md's metric catalog and
// the daemon's registry in step: every family any linked package registers
// on obs.Default has a catalog row, and every catalog name is registered.
func TestMetricCatalogMatchesRegistry(t *testing.T) {
	documented := catalogFamilies(t)
	registered := obs.Default.Names()
	for _, name := range registered {
		if _, found := slices.BinarySearch(documented, name); !found {
			t.Errorf("registered family %s has no row in DESIGN.md's metric catalog", name)
		}
	}
	for _, name := range documented {
		if _, found := slices.BinarySearch(registered, name); !found {
			t.Errorf("DESIGN.md's metric catalog lists %s, which no package registers", name)
		}
	}
}
