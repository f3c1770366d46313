package bench

import (
	"strings"
	"testing"

	"fun3d/internal/mesh"
)

func quickOpts(buf *strings.Builder) Options {
	return Options{
		Out:          buf,
		Quick:        true,
		SingleSpec:   mesh.SpecTiny(),
		ClusterSpec:  mesh.SpecTiny(),
		MaxThreads:   2,
		NodeCounts:   []int{1, 2},
		RanksPerNode: 2,
		ClusterSteps: 1,
	}
}

// Experiments feeds cmd/experiments' -exp help and the order "all" runs
// in: the paper's tables and figures first, then the extensions.
func TestExperimentsRegistry(t *testing.T) {
	want := []string{
		"table1", "table2", "fig5", "fig6a", "fig6b", "fig7a", "fig7b",
		"fig8a", "fig8b", "fig9", "fig10", "fig11", "overlap",
		"allreduce-scaling", "scaling", "placement", "locality", "precond",
		"service", "quick",
	}
	if got := strings.Join(Experiments(), ", "); got != strings.Join(want, ", ") {
		t.Fatalf("-exp lists\n  %s\nwant paper order\n  %s", got, strings.Join(want, ", "))
	}
	for _, name := range []string{"nonsense", "faults"} {
		if err := Run(name, Options{Out: &strings.Builder{}}); err == nil {
			t.Fatalf("unknown experiment %q accepted", name)
		}
	}
}

// Every experiment must run to completion on a tiny setup and emit its
// header plus a non-empty table.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, name := range Experiments() {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf strings.Builder
			if err := Run(name, quickOpts(&buf)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out := buf.String()
			if !strings.Contains(out, "paper reference:") {
				t.Fatalf("%s: missing header:\n%s", name, out)
			}
			if len(strings.Split(out, "\n")) < 4 {
				t.Fatalf("%s: suspiciously short output:\n%s", name, out)
			}
			t.Logf("\n%s", out)
		})
	}
}
