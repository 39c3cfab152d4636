package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// The correctness oracle: the expected simulated output of every cell,
// committed for the default seed and one held-out seed. Regenerate it
// with --write-oracle after a deliberate change to the model.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

//go:embed testdata/oracle.json
var oracleJSON []byte

// oracle maps seed → "workload/cell" → the cell's output fingerprint.
type oracle map[string]map[string]string

func loadOracle() (oracle, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("parse committed oracle: %w", err)
	}
	return o, nil
}

// expected returns the committed fingerprints for a workload's cells at
// seed, or nil when the seed has no committed expectation.
func (o oracle) expected(w string, seed int64, cells []cell) ([]string, error) {
	bySeed, ok := o[strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, nil
	}
	out := make([]string, len(cells))
	for i, c := range cells {
		fp, ok := bySeed[w+"/"+c.name]
		if !ok {
			return nil, fmt.Errorf("oracle for seed %d has no cell %s/%s", seed, w, c.name)
		}
		out[i] = fp
	}
	return out, nil
}

// writeOracle runs every cell of every workload once for the default
// and held-out seeds and writes the fingerprints to path.
func writeOracle(path string) error {
	o := oracle{}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		bySeed := map[string]string{}
		for _, w := range workloads {
			for _, c := range w.cells(seed) {
				fp, err := fingerprint(c.run())
				if err != nil {
					return fmt.Errorf("%s/%s seed %d: %w", w.name, c.name, seed, err)
				}
				bySeed[w.name+"/"+c.name] = fp
			}
		}
		o[strconv.FormatInt(seed, 10)] = bySeed
	}
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fingerprint renders a cell's output as canonical JSON: float fields
// in shortest round-trip form, so two fingerprints are equal exactly
// when the outputs are. JSON has no NaN or infinity, so a non-finite
// result fails here.
func fingerprint(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	return string(b), nil
}

// diffField names the first field at which two fingerprints differ,
// as a path such as "[1].P99Latency", with both values.
func diffField(got, want string) string {
	g, gerr := decodeExact(got)
	w, werr := decodeExact(want)
	if gerr != nil || werr != nil {
		return "(unparseable fingerprint)"
	}
	if p := diffPath("", g, w); p != "" {
		return p
	}
	return "(fingerprints differ only in encoding)"
}

// decodeExact decodes a fingerprint keeping numbers as their exact
// decimal text.
func decodeExact(s string) (any, error) {
	d := json.NewDecoder(strings.NewReader(s))
	d.UseNumber()
	var v any
	err := d.Decode(&v)
	return v, err
}

func diffPath(path string, g, w any) string {
	switch gv := g.(type) {
	case map[string]any:
		wv, ok := w.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(gv)+len(wv))
		for k := range gv {
			keys = append(keys, k)
		}
		for k := range wv {
			if _, dup := gv[k]; !dup {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if p := diffPath(path+"."+k, gv[k], wv[k]); p != "" {
				return p
			}
		}
		return ""
	case []any:
		wv, ok := w.([]any)
		if !ok || len(wv) != len(gv) {
			break
		}
		for i := range gv {
			if p := diffPath(fmt.Sprintf("%s[%d]", path, i), gv[i], wv[i]); p != "" {
				return p
			}
		}
		return ""
	}
	if reflect.DeepEqual(g, w) {
		return ""
	}
	if path == "" {
		path = "(value)"
	}
	return fmt.Sprintf("%s: got %v, want %v", path, g, w)
}
