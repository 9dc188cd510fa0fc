package dnsserver

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// FuzzRestoreCheckpoint fuzzes the checkpoint decoder start-up runs:
// decodeCheckpoint, then RestoreCheckpoint (and through it
// Engine.RestoreEstimator) on fresh unstarted servers of both estimator
// kinds. No input may panic; a refused checkpoint must leave the
// server's weights and estimator state cold; an accepted one must
// checkpoint again and restore into another fresh server.
func FuzzRestoreCheckpoint(f *testing.F) {
	var reactive []byte
	for _, predictive := range []bool{false, true} {
		srv := fuzzReportServer(f, predictive)
		srv.RecordHits(3, 900)
		srv.RecordHits(0, 100)
		if err := srv.eng.RollEstimates(8); err != nil {
			f.Fatal(err)
		}
		if err := srv.eng.SetAlarm(0, true); err != nil {
			f.Fatal(err)
		}
		srv.noteMapping(1, 600)
		if _, err := srv.Drain(2); err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(srv.Checkpoint())
		if err != nil {
			f.Fatal(err)
		}
		_ = srv.Close()
		f.Add(data)
		if !predictive {
			reactive = data
		}
	}
	// Malformed estimator states and weights inside an otherwise valid
	// checkpoint.
	for _, bad := range []struct{ key, value string }{
		{"Estimator", `{"kind":"quantum","alpha":0.5,"counts":[0],"rates":[0],"rolls":0}`},
		{"Estimator", `{"alpha":0,"counts":[0],"rates":[0],"rolls":0}`},
		{"Estimator", `{"alpha":2,"counts":[0],"rates":[0],"rolls":0}`},
		{"Estimator", `{"alpha":0.5,"counts":[0],"rates":[0],"rolls":-1}`},
		{"Estimator", `{"alpha":0.5,"counts":[0,0],"rates":[0],"rolls":0}`},
		{"Estimator", `{"alpha":0.5,"counts":[0],"rates":[-1],"rolls":0}`},
		{"Estimator", `{"kind":"reactive","alpha":0.5,"counts":[0],"rates":[0],"rolls":0,"map_rates":[1,1]}`},
		{"Estimator", `{"kind":"predictive","alpha":1,"counts":[],"rates":[],"rolls":0}`},
		{"Estimator", `{"kind":"predictive","alpha":0.5,"counts":[0],"rates":[0],"rolls":0,"map_rates":[1]}`},
		{"Estimator", `{"alpha":0.5,"counts":[1e308,1e308],"rates":[0,0],"rolls":3}`},
		{"weights", `[-1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]`},
		{"weights", `[1e308,1e308,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]`},
	} {
		var cp map[string]json.RawMessage
		if err := json.Unmarshal(reactive, &cp); err != nil {
			f.Fatal(err)
		}
		cp[bad.key] = json.RawMessage(bad.value)
		data, err := json.Marshal(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		for _, predictive := range []bool{false, true} {
			srv := fuzzReportServer(t, predictive)
			coldWeights := srv.policy.State().Snapshot().Weights()
			coldEst, _ := srv.eng.EstimatorState()
			if err := srv.RestoreCheckpoint(cp, 0); err != nil {
				if w := srv.policy.State().Snapshot().Weights(); !slices.Equal(w, coldWeights) {
					t.Fatalf("refused checkpoint (%v) moved the weights to %v", err, w)
				}
				if est, _ := srv.eng.EstimatorState(); !reflect.DeepEqual(est, coldEst) {
					t.Fatalf("refused checkpoint (%v) moved the estimator to %+v", err, est)
				}
				_ = srv.Close()
				continue
			}
			again, err := json.Marshal(srv.Checkpoint())
			_ = srv.Close()
			if err != nil {
				t.Fatalf("accepted checkpoint does not encode again: %v", err)
			}
			cp2, err := decodeCheckpoint(again)
			if err != nil {
				t.Fatalf("accepted checkpoint does not decode again: %v", err)
			}
			srv2 := fuzzReportServer(t, predictive)
			if err := srv2.RestoreCheckpoint(cp2, 0); err != nil {
				t.Fatalf("accepted checkpoint does not restore again: %v", err)
			}
			_ = srv2.Close()
		}
	})
}
