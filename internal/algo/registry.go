package algo

import (
	"fmt"
	"strings"
)

// Registry names of the built-in drivers.
const (
	NameSDS  = "sds"
	NameHSS  = "hss"
	NameAMS  = "ams"
	NameHyk  = "hyksort"
	NamePSRS = "psrs"
	NameAuto = "auto"
)

// builtins, in display order. Keep About lines to one sentence; they
// feed -list output and the README algorithm table.
var builtins = []Info{
	{Name: NameSDS, About: "skew-aware sample sort (the paper's algorithm): adaptive τm/τo/τs, duplicate-safe partition", Caps: Capabilities{Stable: true, Checkpoint: true}},
	{Name: NameHSS, About: "histogram sort with sampling (arXiv 1803.01237): iterative splitter refinement, small sample volume"},
	{Name: NameAMS, About: "multi-level AMS-sort (arXiv 1606.08766): recursive k-way partitioning, O(log_k p) exchange levels"},
	{Name: NameHyk, About: "HykSort (ICS'13): recursive hypercube splits with histogram splitters; collapses on duplicates"},
	{Name: NamePSRS, About: "classic parallel sorting by regular sampling (1993): one-shot sample, no duplicate handling"},
	{Name: NameAuto, About: "runtime selection: profiles a sample (duplicates, skew, p, record width, spill pressure) and dispatches", Caps: Capabilities{Stable: true, Checkpoint: true}},
}

// Names returns the selectable driver names in display order.
func Names() []string {
	names := make([]string, len(builtins))
	for i, in := range builtins {
		names[i] = in.Name
	}
	return names
}

// Lookup returns the Info registered under name.
func Lookup(name string) (Info, bool) {
	for _, in := range builtins {
		if in.Name == name {
			return in, true
		}
	}
	return Info{}, false
}

// UnknownError reports a driver name that is not in the registry. Its
// message lists the available names, so CLI surfaces can print it
// verbatim on a bad -algo value.
type UnknownError struct{ Name string }

func (e *UnknownError) Error() string {
	return fmt.Sprintf("unknown algorithm %q (available: %s)", e.Name, strings.Join(Names(), ", "))
}

// New constructs the driver registered under name for record type T.
// Unknown names return *UnknownError.
func New[T any](name string) (Driver[T], error) {
	switch name {
	case NameSDS:
		return sdsDriver[T]{}, nil
	case NameHSS:
		return hssDriver[T]{}, nil
	case NameAMS:
		return amsDriver[T]{}, nil
	case NameHyk:
		return hykDriver[T]{}, nil
	case NamePSRS:
		return psrsDriver[T]{}, nil
	case NameAuto:
		return autoDriver[T]{}, nil
	}
	return nil, &UnknownError{Name: name}
}
