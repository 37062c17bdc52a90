package artifacts

import (
	"reflect"
	"testing"

	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/sim"
	"ispy/internal/traffic"
	"ispy/internal/workload"
)

// keyExempt lists the leaf fields of the key-covered structs that the key
// material leaves out on purpose, each with its reason. An entry that names
// no field fails the test, so the list cannot go stale.
var keyExempt = map[string]string{
	"Config.Hier.L1I.Name": "a label that only diagnostics print",
	"Config.Hier.L1D.Name": "a label that only diagnostics print",
	"Config.Hier.L2.Name":  "a label that only diagnostics print",
	"Config.Hier.L3.Name":  "a label that only diagnostics print",
	"Config.HWPrefetchMask": "a pointer; one changed entry is checked below, " +
		"nil versus empty in TestKeyDeterminismAndSensitivity",
	"Spec.ZipfSkew": "ParseSpec folds it into the tenant weights; checked below by parsing",
}

// TestKeyMaterialCoversEveryField: the key material is the content
// address only while every input of a computation changes it. For each leaf
// field of sim.Config (its hierarchy included), workload.Params,
// core.Options, workload.Input and a parsed traffic.Spec (tenants and
// phases included), changing that field alone must change the material its
// fold renders. A new field the fold misses fails here, whatever the
// compute does with it; so does a field of a kind the walk cannot perturb.
func TestKeyMaterialCoversEveryField(t *testing.T) {
	seen := make(map[string]bool)

	mask := sim.NewLineMask(map[isa.Addr]uint64{0x40: 3, 0x80: 7})
	scfg := sim.Default()
	scfg.HWPrefetchWindow = 8
	scfg.HWPrefetchMask = mask
	coverage(t, seen, "Config", &scfg, func() string { return string(NewKey("k", "a").SimConfig(scfg).buf) })

	params := workload.PresetParams("wordpress")
	coverage(t, seen, "Params", &params, func() string { return string(NewKey("k", "a").Params(params).buf) })

	opt := core.DefaultOptions()
	coverage(t, seen, "Options", &opt, func() string { return string(NewKey("k", "a").Options(opt).buf) })

	in := workload.DefaultInputFor(params)
	in.TypeWeights = []float64{3, 2, 1}
	coverage(t, seen, "Input", &in, func() string { return string(NewKey("k", "a").Input(in).buf) })

	spec := parseSpec(t, "name=s;seed=3;requests=9;arrival=gamma:0.5;day=0.5,1.5;zipf=0.8;"+
		"tenants=wordpress:slo=interactive,tomcat:weight=2:seed=5")
	coverage(t, seen, "Spec", spec, spec.Material)

	for path := range keyExempt {
		if !seen[path] {
			t.Errorf("exemption %s names no field", path)
		}
	}

	// The exemptions' own checks.
	other := scfg
	other.HWPrefetchMask = sim.NewLineMask(map[isa.Addr]uint64{0x40: 3, 0x80: 5})
	if string(NewKey("k", "a").SimConfig(other).buf) == string(NewKey("k", "a").SimConfig(scfg).buf) {
		t.Error("changing one HWPrefetchMask entry left the key material unchanged")
	}
	a := parseSpec(t, "zipf=0.8;tenants=wordpress,tomcat,kafka")
	b := parseSpec(t, "zipf=1.2;tenants=wordpress,tomcat,kafka")
	if a.Material() == b.Material() {
		t.Error("specs that differ only in zipf= render the same material")
	}
}

func parseSpec(t *testing.T, s string) *traffic.Spec {
	t.Helper()
	spec, err := traffic.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// coverage perturbs every leaf of the struct ptr points to, one at a time,
// and requires material to change with each; ptr is restored afterwards.
func coverage(t *testing.T, seen map[string]bool, name string, ptr any, material func() string) {
	t.Helper()
	want := material()
	perturb(t, seen, name, reflect.ValueOf(ptr).Elem(), func(path string) {
		if material() == want {
			t.Errorf("changing %s leaves the key material unchanged", path)
		}
	})
	if material() != want {
		t.Fatalf("%s not restored after the walk", name)
	}
}

// perturb changes v (addressable) at each leaf in turn, calls check with
// the leaf's path, and restores it. Slices are walked element by element
// and also checked for their length.
func perturb(t *testing.T, seen map[string]bool, path string, v reflect.Value, check func(string)) {
	t.Helper()
	if _, ok := keyExempt[path]; ok {
		seen[path] = true
		return
	}
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			perturb(t, seen, path+"."+v.Type().Field(i).Name, v.Field(i), check)
		}
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("%s is empty; give it elements so the walk can reach them", path)
			return
		}
		for i := 0; i < v.Len(); i++ {
			perturb(t, seen, path+"[]", v.Index(i), check)
		}
		v.Set(v.Slice(0, v.Len()-1))
		check(path + " length")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
		check(path)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
		check(path)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
		check(path)
	case reflect.Bool:
		v.SetBool(!v.Bool())
		check(path)
	case reflect.String:
		v.SetString(v.String() + "x")
		check(path)
	default:
		t.Errorf("%s: the walk cannot perturb a field of kind %s; extend it", path, v.Kind())
		return
	}
	v.Set(old)
}
