package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/openload"
)

// TestWriteJSONLossyAccounting: the JSON export must carry the full
// ULI protocol accounting (including drops and timeouts), the runtime
// recovery counters, and the fault/oracle context, so the
// Reqs == Acks + Nacks + Drops identity is checkable from -json
// output alone.
func TestWriteJSONLossyAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(apps.Test)
	s.Env = openload.Options{Scenario: "lossy-uli", FaultSeed: 1, Oracle: true}
	if _, err := s.Run(ChaosConfig, "cilk5-cs"); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var runs []RunJSON
	if err := json.Unmarshal([]byte(sb.String()), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d runs exported, want 1", len(runs))
	}
	r := runs[0]

	if r.ULIReqs == 0 {
		t.Fatal("lossy DTS run exported no ULI requests")
	}
	if r.ULIDrops == 0 {
		t.Fatal("lossy run exported zero drops; the scenario must drop steal messages")
	}
	if r.ULIReqs != r.ULIAcks+r.ULINacks+r.ULIDrops {
		t.Fatalf("exported accounting identity broken: reqs=%d != acks=%d + nacks=%d + drops=%d",
			r.ULIReqs, r.ULIAcks, r.ULINacks, r.ULIDrops)
	}
	if r.FaultTotal == 0 {
		t.Fatal("exported FaultTotal is zero for a faulty run")
	}
	if r.FaultScenario != "lossy-uli" || r.FaultSeed != 1 {
		t.Fatalf("exported fault context = (%q, %d), want (lossy-uli, 1)",
			r.FaultScenario, r.FaultSeed)
	}
	if r.OracleOps == 0 {
		t.Fatal("exported OracleOps is zero with the oracle on")
	}

	// The raw JSON must actually contain the new keys (omitempty must
	// not have eaten populated fields).
	for _, key := range []string{"uli_drops", "fault_total", "oracle_ops", "fault_scenario"} {
		if !strings.Contains(sb.String(), key) {
			t.Errorf("JSON output missing key %q", key)
		}
	}
}

// TestWriteJSONRecoveryCounters: a core-loss run must export the
// runtime's recovery counters (offline cores, reclaims).
func TestWriteJSONRecoveryCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(apps.Test)
	s.Env.Scenario = "core-loss"
	s.Env.FaultSeed = 1
	run, err := s.Run(ChaosConfig, "cilk5-cs")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var runs []RunJSON
	if err := json.Unmarshal([]byte(sb.String()), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d runs exported, want 1", len(runs))
	}
	r := runs[0]
	if r.OfflineCores == 0 {
		t.Fatal("core-loss run exported zero offline cores")
	}
	if r.OfflineCores != run.RT.OfflineCores || r.Reclaims != run.RT.Reclaims ||
		r.Salvages != run.RT.Salvages || r.DegradedCycles != run.RT.DegradedCycles {
		t.Fatalf("exported recovery counters %+v diverge from collected %+v", r, run.RT)
	}
}

// TestWriteJSONCleanRunOmitsFaultFields: a fault-free run must not
// grow noise fields — the recovery/fault keys are omitempty.
func TestWriteJSONCleanRunOmitsFaultFields(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(apps.Test)
	if _, err := s.Run("bT/MESI", "cilk5-mt"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"uli_drops", "fault_total", "oracle_ops", "offline_cores", "fault_scenario"} {
		if strings.Contains(sb.String(), key) {
			t.Errorf("fault-free MESI export contains %q", key)
		}
	}
}

// TestSlowdownStr: the chaos table's slowdown column guards against
// zero-cycle baselines instead of printing +Inf/NaN.
func TestSlowdownStr(t *testing.T) {
	if got := slowdownStr(0, 100); got != "n/a" {
		t.Errorf("slowdownStr(0, 100) = %q, want n/a", got)
	}
	if got := slowdownStr(0, 0); got != "n/a" {
		t.Errorf("slowdownStr(0, 0) = %q, want n/a", got)
	}
	if got := strings.TrimSpace(slowdownStr(100, 250)); got != "2.50x" {
		t.Errorf("slowdownStr(100, 250) = %q, want 2.50x", got)
	}
	if strings.Contains(slowdownStr(0, 5), "Inf") || strings.Contains(slowdownStr(0, 0), "NaN") {
		t.Error("slowdown guard leaked Inf/NaN")
	}
}

// TestChaosParallelMatchesSerial: the chaos table must be byte-identical
// at any host worker count.
func TestChaosParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	apps := []string{"cilk5-cs"}
	scenarios := []string{"noc-jitter", "lossy-uli"}
	var serial, parallel strings.Builder
	if err := Chaos(&serial, apps, scenarios, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := Chaos(&parallel, apps, scenarios, 1, 4); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("chaos table diverged between jobs=1 and jobs=4:\n--- jobs=1\n%s--- jobs=4\n%s",
			serial.String(), parallel.String())
	}
}
