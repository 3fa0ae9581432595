package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// Golden test of the text exposition format: a small registry covering all
// three metric kinds must render exactly this, byte for byte. Any formatting
// drift (family ordering, label rendering, cumulative buckets) breaks
// Prometheus-compatible scrapers silently, so it gets caught here instead.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("exec.cache.hits").Add(3)
	r.Counter("vm.traps", "kind", "btra").Add(2)
	r.Counter("vm.traps", "kind", "btdp").Add(1)
	r.Gauge("exec.pool.workers").Set(8)
	h := r.Histogram("audit.nop.len", []float64{1, 2, 4}, "config", "r2c-full")
	for _, v := range []float64{1, 1, 2, 3, 9} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}

	want := strings.Join([]string{
		`# TYPE exec_cache_hits counter`,
		`exec_cache_hits 3`,
		`# TYPE vm_traps counter`,
		`vm_traps{kind="btdp"} 1`,
		`vm_traps{kind="btra"} 2`,
		`# TYPE exec_pool_workers gauge`,
		`exec_pool_workers 8`,
		`# TYPE audit_nop_len histogram`,
		`audit_nop_len_bucket{config="r2c-full",le="1"} 2`,
		`audit_nop_len_bucket{config="r2c-full",le="2"} 3`,
		`audit_nop_len_bucket{config="r2c-full",le="4"} 4`,
		`audit_nop_len_bucket{config="r2c-full",le="+Inf"} 5`,
		`audit_nop_len_sum{config="r2c-full"} 16`,
		`audit_nop_len_count{config="r2c-full"} 5`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// The exposition must stay inside the Prometheus charset and escape label
// values, whatever the metric keys look like.
func TestWritePrometheusSanitizes(t *testing.T) {
	r := NewRegistry()
	r.Counter("9weird.name-x", "la.bel", "va\"lue\nwith\\escapes").Add(1)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "# TYPE _9weird_name_x counter\n_9weird_name_x{la_bel=\"va\\\"lue\\nwith\\\\escapes\"} 1\n"
	if got != want {
		t.Errorf("sanitized exposition mismatch:\n--- got ---\n%q\n--- want ---\n%q", got, want)
	}
}

// A nil snapshot writes nothing and reports no error.
func TestWritePrometheusNilSnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil snapshot rendered %q", buf.String())
	}
}
