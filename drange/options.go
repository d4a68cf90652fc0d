package drange

import "fmt"

// Option configures Characterize and Open. Options distinguish "unset" from
// "explicitly zero": a parameter is defaulted only when its option is never
// applied, so explicit zeros (for example a zero bias bound via
// WithMaxBiasDelta(0)) are honoured, and explicit values that are invalid
// (WithTRCD(0), WithTolerance(0)) fail loudly instead of being silently
// replaced.
type Option func(*options)

// options records which knobs were explicitly set. Pointer fields are nil
// until the corresponding With* option runs.
type options struct {
	manufacturer  *string
	serial        *uint64
	deterministic *bool
	geometry      *Geometry

	trcdNS *float64

	rowsPerBank *int
	wordsPerRow *int
	banks       *int

	samples          *int
	tolerance        *float64
	maxBiasDelta     *float64
	screenIterations *int
	paper            bool

	shards *int
	post   []Corrector

	backend        *backendSpec
	device         Device
	deviceBackends map[int]backendSpec
	healthTests    *HealthTestPolicy
	drbg           *DRBGPolicy
	rechar         *RecharacterizationPolicy
}

// backendSpec names a registered backend plus its options.
type backendSpec struct {
	name   string
	params map[string]string
}

func buildOptions(opts []Option) *options {
	o := &options{}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// WithManufacturer selects the device profile: "A", "B" or "C" (default "A").
func WithManufacturer(m string) Option {
	return func(o *options) { o.manufacturer = &m }
}

// WithSerial selects the simulated device instance; the serial seeds the
// procedural process variation (default 0).
func WithSerial(serial uint64) Option {
	return func(o *options) { o.serial = &serial }
}

// WithDeterministic replaces the OS-entropy noise source with a seeded
// per-bank one, making characterization and generation reproducible. Never
// use this for real keys. Open defaults to the noise mode recorded in the
// profile; this option overrides it.
func WithDeterministic(on bool) Option {
	return func(o *options) { o.deterministic = &on }
}

// WithGeometry overrides the simulated device geometry. With Open, a
// geometry differing from the profile's is a mismatch error.
func WithGeometry(g Geometry) Option {
	return func(o *options) { o.geometry = &g }
}

// WithTRCD sets the reduced activation latency in nanoseconds used for
// profiling and generation (default 10 ns, the paper's value). The value
// must be positive and at most the JEDEC default.
func WithTRCD(ns float64) Option {
	return func(o *options) { o.trcdNS = &ns }
}

// WithProfilingRegion bounds the region characterized in each bank:
// rowsPerBank rows and wordsPerRow DRAM words per row, over the first banks
// banks (banks <= 0 profiles every bank). Defaults: 128 rows, 8 words, all
// banks. Larger regions find more RNG cells (higher throughput) at the cost
// of a longer characterization.
func WithProfilingRegion(rowsPerBank, wordsPerRow, banks int) Option {
	return func(o *options) {
		o.rowsPerBank = &rowsPerBank
		o.wordsPerRow = &wordsPerRow
		o.banks = &banks
	}
}

// WithSamples sets the number of reduced-latency reads per candidate cell in
// the deep profiling pass (default 600; the paper uses 1000).
func WithSamples(n int) Option {
	return func(o *options) { o.samples = &n }
}

// WithTolerance sets the allowed deviation of each 3-bit symbol count from
// the expected count (default ±35%; the paper uses ±10%). An explicit 0 is
// rejected during characterization rather than silently defaulted.
func WithTolerance(t float64) Option {
	return func(o *options) { o.tolerance = &t }
}

// WithMaxBiasDelta sets the maximum allowed deviation of a cell's observed
// failure probability from one half (default ±2%). An explicit 0 is
// honoured: only cells observed at exactly 50% pass.
func WithMaxBiasDelta(d float64) Option {
	return func(o *options) { o.maxBiasDelta = &d }
}

// WithScreenIterations sets the number of iterations of the cheap screening
// pass (Algorithm 1) that precedes deep profiling (default 50).
func WithScreenIterations(n int) Option {
	return func(o *options) { o.screenIterations = &n }
}

// WithPaperIdentification selects the paper's exact Section 6.1 criterion:
// 1000 samples, ±10% symbol tolerance, 100 screening iterations. It is a
// preset: explicit WithSamples/WithTolerance/WithScreenIterations/
// WithMaxBiasDelta options take precedence regardless of order, so the
// paper's strict criterion can be combined with, say, a zero bias bound.
func WithPaperIdentification() Option {
	return func(o *options) { o.paper = true }
}

// WithShards selects how many parallel harvesting shards the opened Source
// uses: n per-shard channel controllers, clamped to the number of selected
// banks. 0, the default, opens one shard. The returned Source behaves
// identically for every n — sharding only changes throughput and thread
// scheduling.
func WithShards(n int) Option {
	return func(o *options) { o.shards = &n }
}

// shardCount resolves WithShards to the number of shards to start: the
// requested count, or 1 when it is unset or 0.
func (o *options) shardCount() (int, error) {
	if o.shards == nil || *o.shards == 0 {
		return 1, nil
	}
	if *o.shards < 0 {
		return 0, fmt.Errorf("drange: negative shard count %d", *o.shards)
	}
	return *o.shards, nil
}

// WithPostprocess appends the Section 2.2 post-processing chain to the
// opened Source: every corrector is applied in order to the raw harvested
// bitstream before bits reach the caller. D-RaNGe does not need
// post-processing (RNG cells are selected to be unbiased), and the paper
// notes correctors can cost up to 80% of raw throughput; the option exists
// for defence-in-depth and for comparing against the corrected baselines.
func WithPostprocess(correctors ...Corrector) Option {
	return func(o *options) { o.post = append(o.post, correctors...) }
}

// WithBackend selects the device backend used to open the device: one of the
// registered backend names ("sim", "replay", "faulty", or anything added via
// RegisterBackend), with backend-specific options. The default is "sim", the
// built-in simulated device. In OpenPool the backend applies to every device
// unless overridden per device with WithDeviceBackend.
func WithBackend(name string, params map[string]string) Option {
	return func(o *options) {
		o.backend = &backendSpec{name: name, params: copyParams(params)}
	}
}

// WithDevice supplies the device directly instead of opening one through a
// backend, for caller-constructed or middleware-wrapped devices (see
// OpenBackend). With Open, the device's serial and geometry must match the
// profile. It is mutually exclusive with WithBackend and not accepted by
// OpenPool, which opens one device per profile.
func WithDevice(dev Device) Option {
	return func(o *options) { o.device = dev }
}

// WithDeviceBackend overrides the backend for one device of a pool, by index
// into the profiles slice passed to OpenPool — for heterogeneous fleets, or
// for injecting a "faulty" member in robustness tests.
func WithDeviceBackend(index int, name string, params map[string]string) Option {
	return func(o *options) {
		if o.deviceBackends == nil {
			o.deviceBackends = make(map[int]backendSpec)
		}
		o.deviceBackends[index] = backendSpec{name: name, params: copyParams(params)}
	}
}

// WithRecharacterization turns a pool's health evictions into a self-healing
// lifecycle: instead of leaving the pool forever, a member tripping the
// health tests is quarantined, re-characterized in the background over the
// drifted banks, and readmitted with a hot profile swap while the remaining
// members keep serving. Only a health-test trip quarantines a member, so the
// lifecycle implies WithHealthTests(HealthTestPolicy{}) when no health-test
// policy is given, and rejects an explicitly Disabled one. See
// RecharacterizationPolicy for the defaults applied to zero fields. It only
// applies to OpenPool.
func WithRecharacterization(p RecharacterizationPolicy) Option {
	return func(o *options) { o.rechar = &p }
}

func copyParams(params map[string]string) map[string]string {
	if len(params) == 0 {
		return nil
	}
	out := make(map[string]string, len(params))
	for k, v := range params {
		out[k] = v
	}
	return out
}

// rejectPoolOnly errors when pool-only options reach Characterize or Open.
func (o *options) rejectPoolOnly(fn string) error {
	if len(o.deviceBackends) > 0 {
		return fmt.Errorf("drange: WithDeviceBackend applies to OpenPool, not %s", fn)
	}
	if o.rechar != nil {
		return fmt.Errorf("drange: WithRecharacterization applies to OpenPool, not %s", fn)
	}
	if ht := o.healthTests; ht != nil && !ht.Disabled && ht.OnFailure == HealthActionEvict {
		return fmt.Errorf("drange: health action %q applies to OpenPool, not %s (there is no pool member to evict)", ht.OnFailure, fn)
	}
	return nil
}

// charParams is the fully-resolved characterization parameter set.
type charParams struct {
	Manufacturer     string
	Serial           uint64
	Deterministic    bool
	Geometry         Geometry
	TRCDNS           float64
	RowsPerBank      int
	WordsPerRow      int
	Banks            int
	Samples          int
	Tolerance        float64
	MaxBiasDelta     float64
	ScreenIterations int
}

// charParams resolves defaults, then the paper preset, then explicit options
// — so explicit values always win, including explicit zeros.
func (o *options) charParams() charParams {
	p := charParams{
		Manufacturer:     "A",
		TRCDNS:           10.0,
		RowsPerBank:      128,
		WordsPerRow:      8,
		Banks:            0,
		Samples:          600,
		Tolerance:        0.35,
		MaxBiasDelta:     0.02,
		ScreenIterations: 50,
	}
	if o.paper {
		p.Samples = 1000
		p.Tolerance = 0.10
		p.ScreenIterations = 100
	}
	if o.manufacturer != nil {
		p.Manufacturer = *o.manufacturer
	}
	if o.serial != nil {
		p.Serial = *o.serial
	}
	if o.deterministic != nil {
		p.Deterministic = *o.deterministic
	}
	if o.geometry != nil {
		p.Geometry = *o.geometry
	}
	if o.trcdNS != nil {
		p.TRCDNS = *o.trcdNS
	}
	if o.rowsPerBank != nil {
		p.RowsPerBank = *o.rowsPerBank
	}
	if o.wordsPerRow != nil {
		p.WordsPerRow = *o.wordsPerRow
	}
	if o.banks != nil {
		p.Banks = *o.banks
	}
	if o.samples != nil {
		p.Samples = *o.samples
	}
	if o.tolerance != nil {
		p.Tolerance = *o.tolerance
	}
	if o.maxBiasDelta != nil {
		p.MaxBiasDelta = *o.maxBiasDelta
	}
	if o.screenIterations != nil {
		p.ScreenIterations = *o.screenIterations
	}
	return p
}

// rejectCharacterizationOnly errors when options that only make sense during
// characterization are passed to Open, which never re-identifies cells.
func (o *options) rejectCharacterizationOnly() error {
	switch {
	case o.samples != nil, o.tolerance != nil, o.maxBiasDelta != nil,
		o.screenIterations != nil, o.paper,
		o.rowsPerBank != nil, o.wordsPerRow != nil, o.banks != nil:
		return fmt.Errorf("drange: identification options (samples, tolerance, bias bound, screening, profiling region, paper preset) apply to Characterize, not Open — the profile already fixes them")
	}
	return nil
}
