package workload

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ocasta/internal/apps"
	"ocasta/internal/core"
	"ocasta/internal/trace"
)

func TestGenerateDeterministic(t *testing.T) {
	p := StudyUsage(apps.Chrome(), 42)
	a := Generate(p)
	b := Generate(p)
	if len(a.Trace.Events) != len(b.Trace.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Trace.Events), len(b.Trace.Events))
	}
	for i := range a.Trace.Events {
		if a.Trace.Events[i] != b.Trace.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Trace.Events[i], b.Trace.Events[i])
		}
	}
	if a.AccessedKeys != b.AccessedKeys {
		t.Error("accessed key counts differ")
	}
}

func TestGenerateEventsSortedAndStamped(t *testing.T) {
	res := Generate(StudyUsage(apps.Evolution(), 7))
	var prev time.Time
	for i, ev := range res.Trace.Events {
		if ev.Time.Before(prev) {
			t.Fatalf("event %d out of order", i)
		}
		prev = ev.Time
		if ev.App == "" || ev.Key == "" || !ev.Op.Valid() || !ev.Store.Valid() {
			t.Fatalf("event %d malformed: %+v", i, ev)
		}
	}
	if _, last, ok := res.Trace.Span(); !ok || last.After(DefaultStart.Add(31*24*time.Hour)) {
		t.Errorf("trace extends past the configured days: %v", last)
	}
}

func TestGroupsAlwaysCoWritten(t *testing.T) {
	// Every independent clean group must form a full co-modification group
	// under the default 1-second window in every episode.
	m := apps.Outlook()
	res := Generate(StudyUsage(m, 99))
	ps := core.StatsOf(res.Trace.ByApp(m.Name).Events, trace.DefaultWindow)
	// The nav pane pair must have correlation exactly 2.
	if corr := ps.KeyCorrelation(apps.KeyOutlookNavPane, apps.KeyOutlookNavWidth); corr != 2 {
		t.Errorf("navpane correlation = %v, want 2", corr)
	}
}

func TestDominantKeySplitsFromItems(t *testing.T) {
	m := apps.Word()
	res := Generate(StudyUsage(m, 5))
	ps := core.StatsOf(res.Trace.ByApp(m.Name).Events, trace.DefaultWindow)
	// Items are always co-written: corr = 2.
	if corr := ps.KeyCorrelation(apps.WordItemKey(1), apps.WordItemKey(2)); corr != 2 {
		t.Errorf("item-item correlation = %v, want 2", corr)
	}
	// Max Display joins only every 6th episode: corr strictly below 2 but
	// above 1 (it is never written alone).
	corr := ps.KeyCorrelation(apps.KeyWordMaxDisplay, apps.WordItemKey(1))
	if corr >= 2 || corr <= 1 {
		t.Errorf("dominant-item correlation = %v, want in (1,2)", corr)
	}
}

func TestBundleGroupsShareSeconds(t *testing.T) {
	m := apps.GEdit() // one bundle of two 2-key groups
	res := Generate(StudyUsage(m, 13))
	ps := core.StatsOf(res.Trace.ByApp(m.Name).Events, trace.DefaultWindow)
	var bundleKeys []string
	for i := range m.Groups {
		if m.Groups[i].Bundle != 0 {
			bundleKeys = append(bundleKeys, m.Groups[i].GroupKeys()...)
		}
	}
	if len(bundleKeys) != 4 {
		t.Fatalf("expected 4 bundle keys, got %v", bundleKeys)
	}
	// Cross-group keys inside one bundle must be fully correlated, which
	// is what produces the oversized cluster.
	if corr := ps.KeyCorrelation(bundleKeys[0], bundleKeys[2]); corr != 2 {
		t.Errorf("cross-group bundle correlation = %v, want 2", corr)
	}
}

func TestReadsAndKeysAccumulate(t *testing.T) {
	res := Generate(StudyUsage(apps.EyeOfGNOME(), 3))
	st := res.Store.Stats()
	if st.Reads == 0 {
		t.Error("sessions must produce reads")
	}
	if res.AccessedKeys < apps.EyeOfGNOME().KeyCount() {
		t.Errorf("AccessedKeys = %d, want >= %d", res.AccessedKeys, apps.EyeOfGNOME().KeyCount())
	}
}

func TestFillerKeysNeverPair(t *testing.T) {
	p := MachineProfile{
		Name: "fill-test", User: "u", Days: 10, Seed: 21,
		Fill: Filler{Keys: 50, WritesPerDay: 40, ScansPerDay: 1, PathPrefix: `HKCU\Software\F`},
	}
	res := Generate(p)
	ps := core.StatsOf(res.Trace.Events, trace.DefaultWindow)
	if ps.NumGroups() == 0 {
		t.Fatal("filler wrote nothing")
	}
	if n := ps.NumPairs(); n != 0 {
		t.Fatalf("filler keys grouped together: %d co-modified pairs", n)
	}
}

func TestProfilesCoverTableI(t *testing.T) {
	ps := Profiles()
	if len(ps) != 9 {
		t.Fatalf("Profiles() = %d, want 9 (Table I rows)", len(ps))
	}
	wantDays := map[string]int{
		"Windows 7": 42, "Windows Vista": 53, "Windows Vista-2": 18,
		"Windows XP": 25, "Windows XP-2": 32,
		"Linux-1": 25, "Linux-2": 84, "Linux-3": 46, "Linux-4": 64,
	}
	for _, p := range ps {
		if wantDays[p.Name] != p.Days {
			t.Errorf("%s days = %d, want %d", p.Name, p.Days, wantDays[p.Name])
		}
	}
	if _, ok := ProfileByName("Windows 7"); !ok {
		t.Error("ProfileByName(Windows 7) not found")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("ProfileByName(nope) should be missing")
	}
}

// Every Table III error's application must be present on its trace.
func TestErrorAppsOnTheirTraces(t *testing.T) {
	placement := map[string][]string{
		"Windows 7":     {"outlook", "msword", "ie"},
		"Windows Vista": {"explorer"},
		"Windows XP":    {"wmp", "mspaint", "explorer"},
		"Linux-1":       {"evolution", "eog", "gedit"},
		"Linux-2":       {"chrome"},
		"Linux-3":       {"acrobat"},
		"Linux-4":       {"acrobat"},
	}
	for machine, appNames := range placement {
		p, ok := ProfileByName(machine)
		if !ok {
			t.Fatalf("missing profile %s", machine)
		}
		for _, name := range appNames {
			found := false
			for _, u := range p.Apps {
				if u.Model.Name == name {
					found = true
				}
			}
			if !found {
				t.Errorf("%s must run %s (Table III placement)", machine, name)
			}
		}
	}
}

func TestSyntheticStreamShape(t *testing.T) {
	spec := StreamSpec{Apps: 2, Components: 10, KeysPerComponent: 4, Episodes: 300, Seed: 7}
	tr := SyntheticStream(spec)
	if got, want := len(tr.Events), spec.Events(); got != want {
		t.Fatalf("generated %d events, Events() says %d", got, want)
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Time.Before(tr.Events[i-1].Time) {
			t.Fatalf("events out of order at %d", i)
		}
	}
	// Deterministic for a seed.
	again := SyntheticStream(spec)
	if !reflect.DeepEqual(tr, again) {
		t.Fatal("SyntheticStream not deterministic")
	}
	// Dirty episodes land strictly after the base stream and only touch
	// the designated components.
	dirty := DirtyEpisodes(spec, 2, 6, 0)
	last := tr.Events[len(tr.Events)-1].Time
	for _, ev := range dirty.Events {
		if !ev.Time.After(last) {
			t.Fatalf("dirty event at %v not after base end %v", ev.Time, last)
		}
		if !strings.Contains(ev.Key, "/c0000/") && !strings.Contains(ev.Key, "/c0001/") {
			t.Fatalf("dirty event touched unexpected key %s", ev.Key)
		}
	}
}
