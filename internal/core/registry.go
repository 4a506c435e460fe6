package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/scheme"
)

// The scheme registry. Schemes are looked up by name when a Simulator is
// built, so variants and future comparison counterparts plug in by
// registering a builder instead of editing core. The three paper schemes
// and every IPU ablation/extension variant register themselves at init;
// external packages add their own with RegisterScheme.

// SchemeBuilder constructs one scheme instance over the given geometry and
// error model. Builders must not retain the pointers beyond construction
// hand-off: core passes per-simulator copies.
type SchemeBuilder func(fc *flash.Config, em *errmodel.Model) (scheme.Scheme, error)

var (
	schemeRegMu sync.RWMutex
	schemeReg   = map[string]SchemeBuilder{}
	schemeOrder []string
)

// SchemeNames lists the comparison schemes of the matrix: the source
// paper's three counterparts in the paper's presentation order, then the
// cross-paper additions alphabetically. It is derived from the registry —
// every entry registered as a paper scheme lands here — and re-sorted
// canonically on each registration, so the ordering (and with it matrix,
// differential and golden output) is independent of package init order.
var SchemeNames []string

// paperSchemeRank pins the source paper's schemes to the front of
// SchemeNames in the paper's own order; everything else sorts
// alphabetically after them.
var paperSchemeRank = map[string]int{"Baseline": 0, "MGA": 1, "IPU": 2}

// sortSchemeNames sorts names into the canonical SchemeNames order.
func sortSchemeNames(names []string) {
	sort.SliceStable(names, func(i, j int) bool {
		ri, iPaper := paperSchemeRank[names[i]]
		rj, jPaper := paperSchemeRank[names[j]]
		switch {
		case iPaper && jPaper:
			return ri < rj
		case iPaper != jPaper:
			return iPaper
		default:
			return names[i] < names[j]
		}
	})
}

// RegisterScheme adds a named scheme builder to the registry. Name lookups
// in Config.Scheme, the experiment drivers and the daemon all resolve
// through it. Registering an empty name, a nil builder, or a duplicate
// name panics: registration is a program-initialisation act, and a
// conflict is a bug worth failing loudly on.
func RegisterScheme(name string, build SchemeBuilder) {
	if name == "" {
		panic("core: RegisterScheme with empty name")
	}
	if build == nil {
		panic(fmt.Sprintf("core: RegisterScheme(%q) with nil builder", name))
	}
	schemeRegMu.Lock()
	defer schemeRegMu.Unlock()
	if _, dup := schemeReg[name]; dup {
		panic(fmt.Sprintf("core: scheme %q registered twice", name))
	}
	schemeReg[name] = build
	schemeOrder = append(schemeOrder, name)
}

// Schemes returns every registered scheme name in registration order: the
// paper schemes first, then the IPU variants, then anything registered by
// external packages.
func Schemes() []string {
	schemeRegMu.RLock()
	defer schemeRegMu.RUnlock()
	return append([]string(nil), schemeOrder...)
}

// lookupScheme resolves a registered builder.
func lookupScheme(name string) (SchemeBuilder, bool) {
	schemeRegMu.RLock()
	defer schemeRegMu.RUnlock()
	b, ok := schemeReg[name]
	return b, ok
}

// buildScheme constructs (and, per cfg.Flash.PreFillMLC, preconditions) a
// scheme instance from scratch via the registry.
func buildScheme(cfg Config) (scheme.Scheme, error) {
	build, err := schemeBuilder(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	fc := cfg.Flash // copy: the scheme retains a pointer
	em := cfg.Error
	return build(&fc, &em)
}

// schemeBuilder resolves a registered builder or reports the unknown name.
func schemeBuilder(name string) (SchemeBuilder, error) {
	build, ok := lookupScheme(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown scheme %q (registered: %s)",
			name, strings.Join(Schemes(), ", "))
	}
	return build, nil
}

func init() {
	// The paper's three counterparts, in the paper's order; these also
	// populate SchemeNames.
	registerPaperScheme("Baseline", func(fc *flash.Config, em *errmodel.Model) (scheme.Scheme, error) {
		return scheme.NewBaseline(fc, em)
	})
	registerPaperScheme("MGA", func(fc *flash.Config, em *errmodel.Model) (scheme.Scheme, error) {
		return scheme.NewMGA(fc, em)
	})
	registerPaperScheme("IPU", ipuBuilder(scheme.DefaultIPUVariant()))

	// The cross-paper counterparts: In-place Switch (arXiv:2409.14360)
	// and IPU with a time-efficient preemptive GC (arXiv:1807.09313).
	registerPaperScheme("IPS", func(fc *flash.Config, em *errmodel.Model) (scheme.Scheme, error) {
		return scheme.NewIPS(fc, em)
	})
	registerPaperScheme("IPU-PGC", func(fc *flash.Config, em *errmodel.Model) (scheme.Scheme, error) {
		return scheme.NewIPUPGC(fc, em, scheme.DefaultPGCConfig())
	})

	// The remaining IPU ablation/extension variants, sorted for a
	// deterministic registration order.
	variants := scheme.IPUVariants()
	for _, name := range sortedKeys(variants) {
		if name != "IPU" {
			RegisterScheme(name, ipuBuilder(variants[name]))
		}
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// registerPaperScheme registers a builder and inserts the name into
// SchemeNames at its canonical position, keeping the comparison set
// derived from the registry but ordered independently of registration
// order.
func registerPaperScheme(name string, build SchemeBuilder) {
	RegisterScheme(name, build)
	SchemeNames = append(SchemeNames, name)
	sortSchemeNames(SchemeNames)
}

// ipuBuilder adapts one IPU variant to the SchemeBuilder shape.
func ipuBuilder(v scheme.IPUVariant) SchemeBuilder {
	return func(fc *flash.Config, em *errmodel.Model) (scheme.Scheme, error) {
		return scheme.NewIPUVariant(fc, em, v)
	}
}
