package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

func TestBaselineConflicts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{nil, nil},
		{[]string{"-baseline"}, nil},
		{[]string{"-baseline", "-fill", "0", "-steps", "3"}, nil},
		{[]string{"-threads", "4", "-strategy", "atomic"}, nil},
		{[]string{"-baseline=false", "-threads", "4"}, nil},
		{[]string{"-baseline", "-threads", "4"}, []string{"-threads"}},
		{[]string{"-baseline", "-no-prefetch", "-sched", "level", "-no-simd", "-strategy", "seq", "-threads", "1"},
			[]string{"-no-prefetch", "-no-simd", "-sched", "-strategy", "-threads"}},
	} {
		fs := flag.NewFlagSet("fun3d", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Bool("baseline", false, "")
		fs.Int("threads", 2, "")
		fs.String("strategy", "metis", "")
		fs.String("sched", "p2p", "")
		fs.Bool("no-simd", false, "")
		fs.Bool("no-prefetch", false, "")
		fs.Int("fill", 1, "")
		fs.Int("steps", 60, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := baselineConflicts(fs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v: conflicts %v, want %v", tc.args, got, tc.want)
		}
	}
}
