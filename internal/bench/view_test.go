package bench

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/cilkview"
	"bigtiny/internal/wsrt"
)

// TestViewReport: for every app at test size, the view target's row is
// the app's default grain and the numbers cilkview.Analyze gives when
// run directly, and its Work/Span/Para/IPT are Table III's columns in
// the blessed docs/golden/all.txt.
func TestViewReport(t *testing.T) {
	var buf bytes.Buffer
	if err := NewSuite(apps.Test).ViewReport(&buf, AppNames()); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(buf.String(), "\n")[2:] {
		if f := strings.Fields(line); len(f) == 7 {
			rows[f[0]] = f[1:]
		}
	}
	golden, err := os.ReadFile("../../docs/golden/all.txt")
	if err != nil {
		t.Fatal(err)
	}
	table3 := map[string][]string{}
	for _, line := range strings.Split(string(golden), "\n")[2:15] {
		f := strings.Fields(line)
		table3[f[0]] = f[2:6]
	}
	for _, app := range apps.All() {
		r := cilkview.Analyze(func(rt *wsrt.RT) wsrt.Body {
			return app.Setup(rt, apps.Test, 0).Root
		})
		want := []string{fmt.Sprint(app.DefaultGrain), fmt.Sprint(r.Work), fmt.Sprint(r.Span),
			fmt.Sprintf("%.1f", r.Parallelism()), fmt.Sprintf("%.1f", r.IPT()), fmt.Sprint(r.Tasks)}
		got := rows[app.Name]
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: view row %v, want %v (cilkview.Analyze)", app.Name, got, want)
			continue
		}
		if g := table3[app.Name]; strings.Join(g, " ") != strings.Join(got[1:5], " ") {
			t.Errorf("%s: view Work/Span/Para/IPT %v, Table III golden %v", app.Name, got[1:5], g)
		}
	}
}
