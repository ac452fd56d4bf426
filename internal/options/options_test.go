package options

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPresetsValidate(t *testing.T) {
	for name, o := range map[string]Options{
		"COPS-FTP":  COPSFTP(),
		"COPS-HTTP": COPSHTTP(),
	} {
		if err := o.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", name, err)
		}
	}
}

func TestPresetsMatchTable1(t *testing.T) {
	ftp := COPSFTP()
	http := COPSHTTP()
	// The COPS-FTP and COPS-HTTP columns of Table 1.
	want := []struct {
		id        OptionID
		ftp, http string
	}{
		{O1DispatcherThreads, "1", "1"},
		{O2SeparateThreadPool, "Yes", "Yes"},
		{O3Codec, "Yes", "Yes"},
		{O4CompletionEvents, "Synchronous", "Asynchronous"},
		{O5ThreadAllocation, "Dynamic", "Static"},
		{O6FileCache, "No", "Yes: LRU"},
		{O7ShutdownLongIdle, "Yes", "No"},
		{O8EventScheduling, "No", "No"},
		{O9OverloadControl, "No", "No"},
		{O10Mode, "Production", "Production"},
		{O11Profiling, "No", "No"},
		{O12Logging, "No", "No"},
	}
	for _, w := range want {
		if got := ftp.Value(w.id); got != w.ftp {
			t.Errorf("%s COPS-FTP = %q, want %q", w.id, got, w.ftp)
		}
		if got := http.Value(w.id); got != w.http {
			t.Errorf("%s COPS-HTTP = %q, want %q", w.id, got, w.http)
		}
	}
}

func TestExperimentVariants(t *testing.T) {
	sched := COPSHTTP().WithScheduling(1, 8)
	if err := sched.Validate(); err != nil {
		t.Fatalf("scheduling variant invalid: %v", err)
	}
	if sched.Value(O8EventScheduling) != "Yes" {
		t.Errorf("O8 not enabled by WithScheduling")
	}
	if len(sched.Quotas) != 2 || sched.Quotas[1] != 8 {
		t.Errorf("quota wiring wrong: %+v", sched)
	}

	over := COPSHTTP().WithOverloadControl(20, 5)
	if err := over.Validate(); err != nil {
		t.Fatalf("overload variant invalid: %v", err)
	}
	if over.HighWatermark != 20 || over.LowWatermark != 5 {
		t.Errorf("watermarks wrong: %+v", over)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
		want   error
	}{
		{"zero dispatcher threads", func(o *Options) { o.DispatcherThreads = 0 }, ErrDispatcherThreads},
		{"odd dispatcher threads", func(o *Options) { o.DispatcherThreads = 3 }, ErrDispatcherThreads},
		{"negative dispatcher threads", func(o *Options) { o.DispatcherThreads = -2 }, ErrDispatcherThreads},
		{"pool without workers", func(o *Options) { o.SeparateThreadPool = true; o.EventThreads = 0 }, ErrEventThreads},
		{"dynamic without bounds", func(o *Options) { o.Allocation = DynamicAllocation; o.MinEventThreads = 0 }, ErrAllocationBounds},
		{"dynamic min>max", func(o *Options) {
			o.Allocation = DynamicAllocation
			o.MinEventThreads = 8
			o.MaxEventThreads = 2
		}, ErrAllocationBounds},
		{"cache without capacity", func(o *Options) { o.Cache = LRU; o.CacheCapacity = 0; o.FileIOThreads = 1 }, ErrCacheCapacity},
		{"cache without io threads", func(o *Options) { o.Cache = LRU; o.CacheCapacity = 1 << 20; o.FileIOThreads = 0 }, ErrFileIOThreads},
		{"threshold policy without threshold", func(o *Options) {
			o.Cache = LRUThreshold
			o.CacheCapacity = 1 << 20
			o.FileIOThreads = 1
			o.CacheThreshold = 0
		}, ErrCacheThreshold},
		{"idle without timeout", func(o *Options) { o.ShutdownLongIdle = true; o.IdleTimeout = 0 }, ErrIdleTimeout},
		{"scheduling one level", func(o *Options) { o.EventScheduling = true; o.Quotas = []int{1} }, ErrPriorityLevels},
		{"scheduling zero quota", func(o *Options) {
			o.EventScheduling = true
			o.Quotas = []int{1, 0}
		}, ErrQuotas},
		{"overload equal watermarks", func(o *Options) {
			o.OverloadControl = true
			o.HighWatermark = 5
			o.LowWatermark = 5
		}, ErrWatermarks},
		{"overload zero low", func(o *Options) {
			o.OverloadControl = true
			o.HighWatermark = 5
			o.LowWatermark = 0
		}, ErrWatermarks},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{DispatcherThreads: 1}
			tc.mutate(&o)
			err := o.Validate()
			if !errors.Is(err, tc.want) {
				t.Errorf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsEvenDispatchers(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		o := Options{DispatcherThreads: n}
		if err := o.Validate(); err != nil {
			t.Errorf("DispatcherThreads=%d: %v", n, err)
		}
	}
}

func TestOptionNamesAndLegalValues(t *testing.T) {
	for _, id := range AllOptionIDs() {
		if id.Name() == "unknown option" {
			t.Errorf("%v has no name", id)
		}
		if id.LegalValues() == "" {
			t.Errorf("%v has no legal values", id)
		}
		if !strings.HasPrefix(id.String(), "O") {
			t.Errorf("%v String = %q", id, id.String())
		}
	}
	if OptionID(0).Name() != "unknown option" {
		t.Error("OptionID(0) should be unknown")
	}
	if got := OptionID(99).String(); got != "O?(99)" {
		t.Errorf("OptionID(99).String() = %q", got)
	}
}

func TestCachePolicyRoundTrip(t *testing.T) {
	for _, p := range []CachePolicy{NoCache, LRU, LFU, LRUMin, LRUThreshold, HyperG, CustomPolicy} {
		got, err := ParseCachePolicy(p.String())
		if err != nil {
			t.Errorf("ParseCachePolicy(%q): %v", p.String(), err)
			continue
		}
		if got != p {
			t.Errorf("round trip %v -> %v", p, got)
		}
	}
	if _, err := ParseCachePolicy("bogus"); err == nil {
		t.Error("ParseCachePolicy(bogus) succeeded")
	}
	if got := CachePolicy(42).String(); got != "CachePolicy(42)" {
		t.Errorf("CachePolicy(42).String() = %q", got)
	}
}

func TestCrosscutMatrixMatchesTable2(t *testing.T) {
	// Spot-check the distinctive cells of Table 2.
	checks := []struct {
		class Class
		id    OptionID
		want  Mark
	}{
		{ClassCompletionEvent, O4CompletionEvents, Exists},
		{ClassProcessorController, O5ThreadAllocation, Exists},
		{ClassCache, O6FileCache, Exists},
		{ClassDecodeRequestHandler, O3Codec, Exists},
		{ClassEncodeReplyHandler, O3Codec, Exists},
		{ClassComputeHandler, O3Codec, Depends},
		{ClassReactor, O1DispatcherThreads, Depends},
		{ClassReactor, O7ShutdownLongIdle, None},
		{ClassEvent, O8EventScheduling, Depends},
		{ClassEvent, O1DispatcherThreads, None},
		{ClassServer, O3Codec, Depends},
		{ClassServerConfiguration, O10Mode, Depends},
		{ClassAcceptorHandler, O9OverloadControl, Depends},
		{ClassHandle, O1DispatcherThreads, Depends},
	}
	for _, c := range checks {
		if got := CrosscutMark(c.class, c.id); got != c.want {
			t.Errorf("CrosscutMark(%q, %v) = %v, want %v", c.class, c.id, got, c.want)
		}
	}
}

func TestCrosscutRowAndColumnQueries(t *testing.T) {
	if got := len(Classes()); got != 27 {
		t.Fatalf("Classes() has %d rows, Table 2 has 27", got)
	}
	// The Reactor row of Table 2 is marked for every option except O3 and O7.
	reactor := OptionsAffecting(ClassReactor)
	if len(reactor) != 10 {
		t.Errorf("Reactor affected by %d options, want 10: %v", len(reactor), reactor)
	}
	for _, id := range reactor {
		if id == O3Codec || id == O7ShutdownLongIdle {
			t.Errorf("Reactor should not be affected by %v", id)
		}
	}
	// O10 (mode) is the widest-crosscutting column together with O7.
	if got := len(ClassesAffectedBy(O10Mode)); got != 17 {
		t.Errorf("O10 affects %d classes, want 17", got)
	}
	// Every class is affected by at least one option.
	for _, c := range Classes() {
		if len(OptionsAffecting(c)) == 0 {
			t.Errorf("class %q affected by no options", c)
		}
	}
}

func TestClassGenerated(t *testing.T) {
	ftp := COPSFTP() // synchronous completions, dynamic allocation, no cache
	http := COPSHTTP()
	cases := []struct {
		class     Class
		ftp, http bool
	}{
		{ClassCompletionEvent, false, true},
		{ClassFileOpenEvent, false, true},
		{ClassFileReadEvent, false, true},
		{ClassFileHandle, false, true},
		{ClassProcessorController, true, false},
		{ClassCache, false, true},
		{ClassDecodeRequestHandler, true, true},
		{ClassReactor, true, true},
		{ClassServer, true, true},
	}
	for _, c := range cases {
		if got := ClassGenerated(c.class, &ftp); got != c.ftp {
			t.Errorf("ClassGenerated(%q, FTP) = %v, want %v", c.class, got, c.ftp)
		}
		if got := ClassGenerated(c.class, &http); got != c.http {
			t.Errorf("ClassGenerated(%q, HTTP) = %v, want %v", c.class, got, c.http)
		}
	}
	noCodec := COPSHTTP()
	noCodec.Codec = false
	if ClassGenerated(ClassDecodeRequestHandler, &noCodec) {
		t.Error("decode handler generated without codec")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	// full sets every field, so a field the file form lacks cannot
	// round-trip to its zero value unnoticed.
	full := COPSHTTP().WithScheduling(1, 8).WithOverloadControl(20, 5).
		WithHardening(3*time.Second, 2*time.Second, 1<<20).
		WithLargeFiles(1 << 20).WithShards(4)
	full.DispatcherThreads = 2
	full.Allocation = DynamicAllocation
	full.MinEventThreads, full.MaxEventThreads = 2, 16
	full.Cache, full.CacheThreshold = LRUThreshold, 1<<16
	full.ShutdownLongIdle, full.IdleTimeout = true, 90*time.Second
	full.MaxConnections = 300
	full.Mode, full.Profiling, full.Logging = Debug, true, true
	v := reflect.ValueOf(full)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("full case leaves %s zero", v.Type().Field(i).Name)
		}
	}
	for name, o := range map[string]Options{
		"ftp":   COPSFTP(),
		"http":  COPSHTTP(),
		"sched": COPSHTTP().WithScheduling(1, 2),
		"over":  COPSHTTP().WithOverloadControl(20, 5),
		"full":  full,
	} {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(o)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got Options
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(got, o) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, o)
			}
		})
	}
}

func TestJSONRejectsBadEnums(t *testing.T) {
	for _, bad := range []string{
		`{"dispatcher_threads":1,"completion":"Sideways"}`,
		`{"dispatcher_threads":1,"allocation":"Quantum"}`,
		`{"dispatcher_threads":1,"cache":"FIFO-MAX"}`,
		`{"dispatcher_threads":1,"mode":"Hyperdrive"}`,
		`{"dispatcher_threads":1,"idle_timeout":"eleventy"}`,
		`{"dispatcher_threads":"one"}`,
		`{"dispatcher_threads":1,"read_timeout":"soon"}`,
		`{"dispatcher_threads":1,"adaptive_shed":true}`,
	} {
		var o Options
		if err := json.Unmarshal([]byte(bad), &o); err == nil {
			t.Errorf("unmarshal accepted %s", bad)
		}
	}
}

func TestJSONDefaultsAreZeroValues(t *testing.T) {
	var o Options
	if err := json.Unmarshal([]byte(`{"dispatcher_threads":1}`), &o); err != nil {
		t.Fatal(err)
	}
	if o.Completion != SynchronousCompletion || o.Allocation != StaticAllocation ||
		o.Cache != NoCache || o.Mode != Production {
		t.Errorf("defaults wrong: %+v", o)
	}
}

// quickOptions builds a syntactically valid Options from arbitrary fuzz
// inputs so that properties can be asserted over the whole legal space.
func quickOptions(dispPairs uint8, pool bool, workers uint8, codec bool,
	async bool, dynamic bool, cache uint8, sched bool, levels uint8) Options {
	o := Options{
		DispatcherThreads:  1,
		SeparateThreadPool: pool,
		EventThreads:       int(workers%8) + 1,
		Codec:              codec,
	}
	if dispPairs%2 == 1 {
		o.DispatcherThreads = 2 * (int(dispPairs%4) + 1)
	}
	if async {
		o.Completion = AsynchronousCompletion
	}
	if dynamic {
		o.Allocation = DynamicAllocation
		o.MinEventThreads = 1
		o.MaxEventThreads = int(workers%8) + 1
	}
	if p := CachePolicy(cache % 7); p != NoCache {
		o.Cache = p
		o.CacheCapacity = 1 << 20
		o.CacheThreshold = 64 << 10
		o.FileIOThreads = 2
	}
	if sched {
		o.EventScheduling = true
		o.Quotas = make([]int, int(levels%3)+2)
		for i := range o.Quotas {
			o.Quotas[i] = i + 1
		}
	}
	return o
}

func TestQuickLegalOptionsAlwaysValidate(t *testing.T) {
	f := func(a uint8, b bool, c uint8, d, e, g bool, h uint8, i bool, j uint8) bool {
		o := quickOptions(a, b, c, d, e, g, h, i, j)
		return o.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickJSONRoundTripPreservesTable1Row(t *testing.T) {
	f := func(a uint8, b bool, c uint8, d, e, g bool, h uint8, i bool, j uint8) bool {
		o := quickOptions(a, b, c, d, e, g, h, i, j)
		o.IdleTimeout = time.Duration(a) * time.Second
		if a > 0 {
			o.ShutdownLongIdle = true
		}
		data, err := json.Marshal(o)
		if err != nil {
			return false
		}
		var got Options
		if err := json.Unmarshal(data, &got); err != nil {
			return false
		}
		for _, id := range AllOptionIDs() {
			if got.Value(id) != o.Value(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
