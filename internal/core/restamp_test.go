package core

import (
	"context"
	"reflect"
	"testing"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/scheme"
	"ipusim/internal/trace"
)

// restampModel is a non-default error model: a weaker code and a steeper
// wear curve, so reads retry and the read path departs from the default
// model's numbers.
func restampModel() errmodel.Model {
	em := errmodel.Default()
	em.RefBER *= 2
	em.Exponent = 1.8
	em.CorrectableBits = 24
	em.MaxRetries = 5
	return em
}

// restampConfigs lists the parametric variations one structural template
// serves: the four device use stages of Figs. 13–14 under the default
// error model, plus the default stage under restampModel.
func restampConfigs(name string) []Config {
	var cfgs []Config
	for _, pe := range []int{1000, 2000, 4000, 8000} {
		cfg := DefaultConfig()
		cfg.Flash = snapshotFlash()
		cfg.Flash.PEBaseline = pe
		cfg.Scheme = name
		cfgs = append(cfgs, cfg)
	}
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	cfg.Error = restampModel()
	cfg.Scheme = name
	return append(cfgs, cfg)
}

// TestRestampMatchesFreshReplay is the exactness differential of the
// re-stamped snapshot key: one template per (structure, scheme) serves
// every P/E baseline and error model, and a copy re-stamped with the
// caller's parametric fields must replay bit-for-bit like a from-scratch
// build. It covers both start-up paths: a fresh clone of a template
// built under another P/E, and a recycled device last released at
// another P/E (or under another error model).
func TestRestampMatchesFreshReplay(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range SchemeNames {
		cfgs := restampConfigs(name)
		want := make([]*Result, len(cfgs))
		for i, cfg := range cfgs {
			fresh, err := NewFresh(cfg)
			if err != nil {
				t.Fatalf("%s: fresh build: %v", name, err)
			}
			if want[i], err = fresh.Run(tr); err != nil {
				t.Fatalf("%s: fresh run: %v", name, err)
			}
		}
		if want[0].ReadErrorRate == want[3].ReadErrorRate || want[2].ReadErrorRate == want[4].ReadErrorRate {
			t.Fatalf("%s: the parametric fields do not reach the results; the differential shows nothing", name)
		}

		check := func(path string, i int, sim *Simulator) {
			t.Helper()
			d := sim.Scheme().Device()
			if d.Cfg != &sim.cfg.Flash || d.Err != &sim.cfg.Error || d.Arr.Config() != d.Cfg {
				t.Fatalf("%s %s %d: device not re-stamped onto the simulator's config", name, path, i)
			}
			got, err := sim.Run(tr)
			if err != nil {
				t.Fatalf("%s %s %d: run: %v", name, path, i, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: %s device %d diverged from fresh:\n got %+v\nwant %+v", name, path, i, got, want[i])
			}
		}

		// Fresh clones: the template is built under the last config (the
		// non-default model), and nothing is released, so every New
		// clones it and re-stamps the clone.
		ResetSnapshotCache()
		order := []int{4, 0, 1, 2, 3}
		for _, i := range order {
			sim, err := New(cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			check("cloned", i, sim)
		}

		// Recycled devices: each New pops the device the previous cell
		// released under another config, restores and re-stamps it.
		var prev *scheme.Device
		for k, i := range order {
			sim, err := New(cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			d := sim.Scheme().Device()
			if k > 0 && d != prev {
				t.Fatalf("%s: config %d got a new device, not the recycled one", name, i)
			}
			prev = d
			check("recycled", i, sim)
			sim.Release()
			if d.Cfg == &sim.cfg.Flash || d.Err == &sim.cfg.Error {
				t.Fatalf("%s: the pooled device still reads the released simulator's config", name)
			}
		}
	}
}

// TestFig13SweepHitsSnapshotCache guards the point of the structural key:
// the default Fig. 13 sweep (five schemes at four P/E levels) builds at
// most one template per scheme, and a second sweep builds none.
func TestFig13SweepHitsSnapshotCache(t *testing.T) {
	ResetSnapshotCache()
	spec := MatrixSpec{
		Traces:      []string{"wdev0"},
		PEBaselines: []int{1000, 2000, 4000, 8000},
		Scale:       0.002,
	}
	for run, maxMiss := range []uint64{5, 0} {
		_, m0 := snapshotStats()
		res, err := RunMatrixContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 20 {
			t.Fatalf("sweep %d returned %d results, want 20", run, len(res))
		}
		if _, m1 := snapshotStats(); m1-m0 > maxMiss {
			t.Errorf("sweep %d built %d templates, want at most %d", run, m1-m0, maxMiss)
		}
	}
	snapshotMu.Lock()
	n := len(snapshotCache)
	snapshotMu.Unlock()
	if n > len(SchemeNames) {
		t.Errorf("cache holds %d templates after the sweep, want at most %d", n, len(SchemeNames))
	}
}

// TestNewValidatesOnCacheHit checks that a cache hit still rejects what a
// from-scratch build rejects: the parametric fields are not part of the
// key, so a template cached for a valid config must not serve an invalid
// PEBaseline or error model.
func TestNewValidatesOnCacheHit(t *testing.T) {
	ResetSnapshotCache()
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	negPE := cfg
	negPE.Flash.PEBaseline = -1
	badModel := cfg
	badModel.Error.RefBER = 0
	unknown := negPE
	unknown.Scheme = "no-such-scheme"
	for what, bad := range map[string]Config{"negative PEBaseline": negPE, "invalid error model": badModel, "unknown scheme": unknown} {
		_, want := NewFresh(bad)
		if want == nil {
			t.Fatalf("%s: NewFresh accepted it", what)
		}
		if _, err := New(bad); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: New returned %v, want %v", what, err, want)
		}
	}
}

// Every field of flash.Config and errmodel.Model is either structural (it
// can shape a built, pre-filled device, so it is part of the snapshot
// key) or parametric (only the read path reads it, so it is left out of
// the key and re-stamped on each copy). A field added to either type
// must be classified here before TestSnapshotKeyClassifiesEveryField
// passes; classifying it parametric also makes the test prove that
// building and pre-filling a device ignore it.
var (
	structuralFlashFields = []string{
		"Channels", "ChipsPerChannel", "DiesPerChip", "PlanesPerDie", "Blocks",
		"SLCRatio", "SLCPagesPerBlock", "MLCPagesPerBlock", "PageSizeBytes",
		"SubpageSizeBytes", "MaxProgramsPerSLCPage", "GCThresholdFraction",
		"MLCGCThresholdFraction", "GCBacklogCap", "LogicalSubpages",
		"PreFillMLC", "Timing",
	}
	parametricFlashFields = []string{"PEBaseline"}
	// The snapshot key holds no error-model field at all.
	parametricErrorFields = []string{
		"RefPE", "RefBER", "Exponent", "PartialFactor", "InPageAlpha",
		"NeighborBeta", "ReprogramGamma", "CodewordDataBits",
		"CorrectableBits", "ECCMin", "ECCMax", "DecodeExponent", "MaxRetries",
	}
)

// bumpField returns a copy of the struct v with the named field moved to
// a nearby valid value (a nested struct has its first field bumped).
func bumpField(t *testing.T, v any, name string) any {
	t.Helper()
	c := reflect.New(reflect.TypeOf(v)).Elem()
	c.Set(reflect.ValueOf(v))
	f := c.FieldByName(name)
	for f.Kind() == reflect.Struct {
		f = f.Field(0)
	}
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Float64:
		f.SetFloat(f.Float() * 1.5)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	default:
		t.Fatalf("field %s: no bump for kind %s", name, f.Kind())
	}
	return c.Interface()
}

// checkClassified fails unless the fields of typ are exactly the union of
// the given lists.
func checkClassified(t *testing.T, typ reflect.Type, lists ...[]string) {
	t.Helper()
	listed := map[string]bool{}
	for _, l := range lists {
		for _, name := range l {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("%s has no field %s; drop it from the classification", typ, name)
			}
			listed[name] = true
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !listed[name] {
			t.Errorf("%s.%s is neither structural nor parametric: classify it for the snapshot key", typ, name)
		}
	}
}

// TestSnapshotKeyClassifiesEveryField guards the snapshot key against a
// new config field: every field must be classified, a structural field
// must separate keys, a parametric one must not, and a device built under
// a bumped parametric field must equal one built under the default and
// re-stamped, and replay like it — so templates are only ever shared by
// configs whose built, pre-filled devices are identical.
func TestSnapshotKeyClassifiesEveryField(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 3, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	checkClassified(t, reflect.TypeOf(flash.Config{}), structuralFlashFields, parametricFlashFields)
	checkClassified(t, reflect.TypeOf(errmodel.Model{}), parametricErrorFields)

	base := DefaultConfig()
	base.Flash = snapshotFlash()
	for _, name := range structuralFlashFields {
		cfg := base
		cfg.Flash = bumpField(t, base.Flash, name).(flash.Config)
		if snapshotKeyOf(&cfg) == snapshotKeyOf(&base) {
			t.Errorf("structural field %s does not separate snapshot keys", name)
		}
	}

	var bumped []Config
	for _, name := range parametricFlashFields {
		cfg := base
		cfg.Flash = bumpField(t, base.Flash, name).(flash.Config)
		bumped = append(bumped, cfg)
	}
	for _, name := range parametricErrorFields {
		cfg := base
		cfg.Error = bumpField(t, base.Error, name).(errmodel.Model)
		bumped = append(bumped, cfg)
	}
	for _, bump := range bumped {
		if snapshotKeyOf(&bump) != snapshotKeyOf(&base) {
			t.Fatalf("a parametric field separates snapshot keys: %+v", bump)
		}
		for _, name := range SchemeNames {
			cfg, plain := bump, base
			cfg.Scheme, plain.Scheme = name, name
			want, err := NewFresh(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewFresh(plain)
			if err != nil {
				t.Fatal(err)
			}
			wd, gd := want.Scheme().Device(), got.Scheme().Device()
			gd.Restamp(wd.Cfg, wd.Err)
			if !reflect.DeepEqual(gd, wd) {
				t.Errorf("%s: a device built under a bumped parametric field differs from a re-stamped one (%+v, %+v)",
					name, cfg.Flash, cfg.Error)
				continue
			}
			// Scheme state outside the device holds method values, which
			// DeepEqual cannot compare; a replay compares it instead.
			wr, err := want.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			gr, err := got.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gr, wr) {
				t.Errorf("%s: a re-stamped device replays unlike one built under the bumped field (%+v, %+v)",
					name, cfg.Flash, cfg.Error)
			}
		}
	}
}
