// Package storeflags registers the result-store flag block shared by the
// vfocus, vfocus-experiments and vfocusd binaries and installs what it
// selects, so the three commands expose identical -store semantics.
package storeflags

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/resultstore"
	"repro/internal/testbench"
)

// Flags holds the parsed result-store flag values.
type Flags struct {
	spec, dir    string
	cap, memoCap int
}

// Register installs -store, -store-dir, -store-cap and -memo-cap on fs and
// returns the value holder.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.spec, "store", "off", "persistent result store: off, mem, disk, an http(s) URL, or a comma-separated tier list (nearest first)")
	fs.StringVar(&f.dir, "store-dir", resultstore.DefaultDir, "root directory of the disk store tier")
	fs.IntVar(&f.cap, "store-cap", 0, "entry cap of the mem store tier (0 = default 4096)")
	fs.IntVar(&f.memoCap, "memo-cap", 0, "in-process fingerprint memo capacity (0 = default 4096)")
	return f
}

// Install sizes the fingerprint memo, opens the store and installs it as the
// process-wide fingerprint store, reporting it through logf. desc describes
// the store ("off" when there is none); close releases it and must run at
// exit.
func (f *Flags) Install(logf func(format string, args ...any)) (desc string, close func() error, err error) {
	if f.memoCap > 0 {
		testbench.SetFPMemoCap(f.memoCap)
	}
	store, desc, err := resultstore.Open(f.spec, f.dir, f.cap)
	if err != nil {
		return "", nil, err
	}
	if store == nil {
		return desc, func() error { return nil }, nil
	}
	testbench.SetStore(store)
	logf("result store: %s", desc)
	return desc, store.Close, nil
}

// Stderr is a logf for Install that prints one line to standard error.
func Stderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
