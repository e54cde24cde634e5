package core

import (
	"errors"
	"strings"
	"testing"
)

// TestReadRejectsUnusableJSON: JSON that decodes but would panic the call
// that consumes it — a nil dereference or an integer divide by zero — is
// refused at read time with a typed error instead.
func TestReadRejectsUnusableJSON(t *testing.T) {
	estimate := func(in string) error {
		m, err := ReadModel(strings.NewReader(in))
		if err != nil {
			return err
		}
		_, err = m.EstimateFlows(GenSpec{Workload: "x"})
		return err
	}
	fit := func(in string) error {
		ts, err := ReadTraceSet(strings.NewReader(in))
		if err != nil {
			return err
		}
		_, err = FitWith(ts, FitOptions{}, nil)
		return err
	}
	cases := []struct {
		name, in string
		use      func(string) error // read in, then make the call it panicked
		want     error
	}{
		{"null job", `{"jobs":{"x":null}}`, estimate, ErrBadModel},
		{"null phase", `{"jobs":{"x":{"refInputBytes":1048576,"refBlockSize":1048576,"phases":{"shuffle":null}}}}`, estimate, ErrBadModel},
		{"zero block size", `{"jobs":{"x":{"refInputBytes":1048576,"refBlockSize":0,"phases":{}}}}`, estimate, ErrBadModel},
		{"null run", `{"runs":[null]}`, fit, ErrBadTraceSet},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			if err := tc.use(tc.in); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want an error wrapping %v", err, tc.want)
			}
		})
	}
}
