package algo

import (
	"strings"
	"testing"
)

func TestRegistryNamesAndLookup(t *testing.T) {
	names := Names()
	wantOrder := []string{NameSDS, NameHSS, NameAMS, NameHyk, NamePSRS, NameAuto}
	if len(names) < len(wantOrder) {
		t.Fatalf("got %d names, want at least %d", len(names), len(wantOrder))
	}
	for i, w := range wantOrder {
		if names[i] != w {
			t.Fatalf("names[%d] = %q, want %q (display order)", i, names[i], w)
		}
	}
	for _, w := range wantOrder {
		in, ok := Lookup(w)
		if !ok {
			t.Fatalf("Lookup(%q) missing", w)
		}
		if in.Name != w || in.About == "" {
			t.Fatalf("Lookup(%q) = %+v", w, in)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestRegistryCapabilities(t *testing.T) {
	for _, in := range builtins {
		wantFull := in.Name == NameSDS || in.Name == NameAuto
		if (in.Caps.Stable && in.Caps.Checkpoint) != wantFull {
			t.Errorf("%s: caps %+v, full-capability should be %v", in.Name, in.Caps, wantFull)
		}
	}
}

func TestUnknownErrorListsDrivers(t *testing.T) {
	_, err := New[float64]("not-a-driver")
	if err == nil {
		t.Fatal("unknown driver constructed")
	}
	ue, ok := err.(*UnknownError)
	if !ok {
		t.Fatalf("got %T, want *UnknownError", err)
	}
	msg := ue.Error()
	for _, name := range []string{NameSDS, NameHSS, NameAMS, NameHyk, NamePSRS, NameAuto} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list %q", msg, name)
		}
	}
}
