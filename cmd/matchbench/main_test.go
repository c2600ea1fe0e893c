package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	names := func(es []experiment) string {
		var out []string
		for _, e := range es {
			out = append(out, e.name)
		}
		return strings.Join(out, ",")
	}
	for _, c := range []struct{ list, want string }{
		{"weighted", "weighted"},
		{"table2, TABLE1 ,table2", "table1,table2"},
		{"dyn,all", names(experiments)},
		{"all", names(experiments)},
	} {
		got, err := selectExperiments(c.list)
		if err != nil {
			t.Fatalf("%q: %v", c.list, err)
		}
		if names(got) != c.want {
			t.Errorf("%q selected %s, want %s", c.list, names(got), c.want)
		}
	}
	for _, c := range []struct{ list, want string }{
		{"weighted,wieghted", `unknown experiment "wieghted"`},
		{"tabel1,fig3,fig9", `unknown experiments "tabel1", "fig9"`},
		{"", `unknown experiment ""`},
		{"table1,", `unknown experiment ""`},
	} {
		got, err := selectExperiments(c.list)
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: selected %s with error %v, want error %q", c.list, names(got), err, c.want)
		}
	}
}
