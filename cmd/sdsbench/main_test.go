package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("SDSBENCH_CLI_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SDSBENCH_CLI_CHILD=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestListExperiments(t *testing.T) {
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, id := range []string{"fig5a", "fig8", "tab3", "tab4", "baselines"} {
		if !strings.Contains(out, id) {
			t.Fatalf("listing missing %s:\n%s", id, out)
		}
	}
}

func TestRunOneExperimentQuick(t *testing.T) {
	out, err := runCLI(t, "-exp", "tab2", "-quick")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "tab2 completed") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	out, err := runCLI(t, "-exp", "tab2", "-quick", "-csv", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "tab2-0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "δ analytic") {
		t.Fatalf("csv content:\n%s", blob)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	if out, err := runCLI(t, "-exp", "nope"); err == nil {
		t.Fatalf("unknown experiment accepted:\n%s", out)
	}
}
