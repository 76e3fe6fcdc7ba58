package main

// Seeded traffic. Every body ranad receives is built here from the
// workload seed alone, before the timed window opens.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"rana/internal/models"
	"rana/internal/serve"
)

const (
	pathSchedule = "/v1/schedule"
	pathCompile  = "/v1/compile"
	pathEvaluate = "/v1/evaluate"
)

// churnNetworks is churn's key space in generated networks: 4× ranad's
// default 256-entry LRU, so evictions and store reads happen (pinned by
// TestChurnKeySpaceExceedsDefaultLRU).
const churnNetworks = 1024

// body is one distinct request body. Bodies that spell the same request
// differently (a zoo model named, or its layers spelled out) share a key.
type body struct {
	path string
	data []byte
	key  int
	// golden names the zoo network whose committed golden plan the
	// response must carry; empty for every other request.
	golden string
}

// traffic is the run's table of distinct bodies and logical keys. Rounds
// add to it; a body or key built twice resolves to the first entry, so
// indices are stable across rounds.
type traffic struct {
	bodies []body
	byBody map[string]int
	keys   map[string]int
	// zooDefault indexes the model-spelled default-option schedule body
	// of each zoo network, sent after every round for the golden check.
	zooDefault []int
}

func newTraffic() *traffic {
	t := &traffic{byBody: map[string]int{}, keys: map[string]int{}}
	for _, net := range models.Benchmarks() {
		t.zooDefault = append(t.zooDefault,
			t.add("zoo/"+net.Name+"/default", pathSchedule, serve.ScheduleRequest{Model: net.Name}, net.Name))
	}
	return t
}

// add interns one body under the logical key name and returns its index.
func (t *traffic) add(keyName, path string, req any, golden string) int {
	data, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("marshaling a generated request: %v", err)) // the request types always marshal
	}
	id := path + "\x00" + string(data)
	if i, ok := t.byBody[id]; ok {
		return i
	}
	k, ok := t.keys[keyName]
	if !ok {
		k = len(t.keys)
		t.keys[keyName] = k
	}
	t.bodies = append(t.bodies, body{path: path, data: data, key: k, golden: golden})
	t.byBody[id] = len(t.bodies) - 1
	return len(t.bodies) - 1
}

// plan is what one fresh ranad process serves: priming requests sent
// before the timed window, then the timed closed-loop sequence.
type plan struct {
	prime []int
	order []int
}

// workload is one traffic mix.
type workload struct {
	name  string
	conns int
	// store runs ranad with -store in a fresh directory.
	store bool
	// allHits requires every timed response to be a cache hit.
	allHits bool
	// round builds round r's plan from the seed.
	round func(t *traffic, seed int64, r int) plan
}

var workloads = []workload{
	{name: "hit-zoo", conns: 2, allHits: true, round: hitZooRound},
	{name: "churn", conns: 2, store: true, round: churnRound},
	// One connection: the search already fans out over GOMAXPROCS
	// workers, so a second connection would measure queueing.
	{name: "axes-open", conns: 1, round: axesOpenRound},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rng derives an independent, reproducible stream for one purpose of
// one round.
func rng(seed int64, r, purpose int) *rand.Rand {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(r)*0xBF58476D1CE4E5B9 ^ uint64(purpose)*0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// spell writes a network out layer by layer.
func spell(net models.Network) *serve.NetworkSpec {
	spec := &serve.NetworkSpec{Name: net.Name}
	for _, l := range net.Layers {
		spec.Layers = append(spec.Layers, serve.LayerSpec{
			Name: l.Name, Stage: l.Stage, N: l.N, H: l.H, L: l.L, M: l.M,
			K: l.K, S: l.S, P: l.P, Groups: l.Groups,
		})
	}
	return spec
}

// scheduleVariants are hit-zoo's four option sets per zoo network.
var scheduleVariants = []struct {
	name        string
	accelerator string
	options     *serve.OptionsSpec
}{
	{name: "default"},
	{name: "conv45", options: &serve.OptionsSpec{Controller: "conventional", RefreshIntervalNS: 45000}},
	{name: "sram", accelerator: "test"},
	{name: "approx", options: &serve.OptionsSpec{Backend: "approx-dram"}},
}

// hitZooKey is one of hit-zoo's logical keys: its model-named and its
// spelled-out body.
type hitZooKey struct{ named, spelled int }

// hitZooKeys builds hit-zoo's 24 keys, by endpoint.
func hitZooKeys(t *traffic) (sched, compile, eval []hitZooKey) {
	for _, net := range models.Benchmarks() {
		for _, v := range scheduleVariants {
			name := "zoo/" + net.Name + "/" + v.name
			golden := ""
			if v.name == "default" {
				golden = net.Name
			}
			sched = append(sched, hitZooKey{
				named:   t.add(name, pathSchedule, serve.ScheduleRequest{Model: net.Name, Accelerator: v.accelerator, Options: v.options}, golden),
				spelled: t.add(name, pathSchedule, serve.ScheduleRequest{Network: spell(net), Accelerator: v.accelerator, Options: v.options}, golden),
			})
		}
		name := "zoo/" + net.Name + "/compile"
		compile = append(compile, hitZooKey{
			named:   t.add(name, pathCompile, serve.CompileRequest{Model: net.Name}, ""),
			spelled: t.add(name, pathCompile, serve.CompileRequest{Network: spell(net)}, ""),
		})
		name = "zoo/" + net.Name + "/evaluate"
		eval = append(eval, hitZooKey{
			named:   t.add(name, pathEvaluate, serve.EvaluateRequest{Design: "RANA*(E-5)", Model: net.Name}, ""),
			spelled: t.add(name, pathEvaluate, serve.EvaluateRequest{Design: "RANA*(E-5)", Network: spell(net)}, ""),
		})
	}
	return sched, compile, eval
}

// hitZooRequestsPerRound sizes a hit-zoo round at about two seconds of
// traffic on a 2-core machine.
const hitZooRequestsPerRound = 6000

// hitZooRound primes every key once, then draws endpoints 70/15/15 and
// a spelling at random; every timed request is a cache hit.
func hitZooRound(t *traffic, seed int64, r int) plan {
	sched, compile, eval := hitZooKeys(t)
	var p plan
	for _, set := range [][]hitZooKey{sched, compile, eval} {
		for _, k := range set {
			p.prime = append(p.prime, k.named)
		}
	}
	g := rng(seed, r, 1)
	for i := 0; i < hitZooRequestsPerRound; i++ {
		set := sched
		switch x := g.Intn(100); {
		case x >= 85:
			set = eval
		case x >= 70:
			set = compile
		}
		k := set[g.Intn(len(set))]
		if g.Intn(2) == 0 {
			p.order = append(p.order, k.named)
		} else {
			p.order = append(p.order, k.spelled)
		}
	}
	return p
}

// genNetwork derives a custom network from a slice of 4–8 consecutive
// layers of a zoo network, with about half the layers' kernel counts
// moved by a few multiples of 8. Unmoved layers share the layer-shape
// memo with other keys; every layer shares the prefix memo, which never
// reads the kernel count.
func genNetwork(g *rand.Rand, base models.Network, name string) models.Network {
	n := 4 + g.Intn(5)
	if n > len(base.Layers) {
		n = len(base.Layers)
	}
	start := g.Intn(len(base.Layers) - n + 1)
	net := models.Network{Name: name}
	for _, l := range base.Layers[start : start+n] {
		if g.Intn(2) == 0 {
			step := 8 * max(l.Groups, 1)
			d := step * (1 + g.Intn(4))
			if g.Intn(2) == 0 && l.M-d >= step {
				d = -d
			}
			l.M += d
		}
		net.Layers = append(net.Layers, l)
	}
	return net
}

// churnKeySpace is the seed's churn networks; the zoo base cycles so
// every seed draws the same mix of base networks.
func churnKeySpace(seed int64) []models.Network {
	zoo := models.Benchmarks()
	g := rng(seed, 0, 2)
	nets := make([]models.Network, churnNetworks)
	for i := range nets {
		nets[i] = genNetwork(g, zoo[i%len(zoo)], fmt.Sprintf("churn-%d", i))
	}
	return nets
}

// churnRequestsPerRound sizes a churn round at under a second of traffic
// on a 2-core machine.
const churnRequestsPerRound = 2000

// churnRound draws networks from a Zipf distribution over the seed's
// key space, and sends about 10% of requests to /v1/compile, the rest
// to /v1/schedule with default axes, always spelled out. Popularity
// follows the key space's order, in which zoo bases cycle, so every
// seed's popular keys mix the four bases alike.
func churnRound(t *traffic, seed int64, r int) plan {
	nets := churnKeySpace(seed)
	g := rng(seed, r, 4)
	zipf := rand.NewZipf(g, 1.1, 1, uint64(len(nets)-1))
	var p plan
	for i := 0; i < churnRequestsPerRound; i++ {
		net := nets[zipf.Uint64()]
		if g.Intn(10) == 0 {
			p.order = append(p.order, t.add(net.Name+"/compile", pathCompile, serve.CompileRequest{Network: spell(net)}, ""))
		} else {
			p.order = append(p.order, t.add(net.Name+"/schedule", pathSchedule, serve.ScheduleRequest{Network: spell(net)}, ""))
		}
	}
	return p
}

// axesGenerated is the number of generated networks per axes-open
// round, next to the 8 zoo keys: a round is then a couple of seconds of
// compiles, long enough for its median to be steady.
const axesGenerated = 96

// axesOptions opens the RTC traversal ladder and every data mapping at
// the conventional 45 µs interval or the default 734 µs one.
func axesOptions(conventional bool) *serve.OptionsSpec {
	o := &serve.OptionsSpec{Traversal: "rtc", Mapping: "all"}
	if conventional {
		o.Controller = "conventional"
		o.RefreshIntervalNS = 45000
	}
	return o
}

// axesOpenRound sends every zoo network at both intervals plus freshly
// generated networks, half at each interval, each key exactly once in a
// shuffled order.
func axesOpenRound(t *traffic, seed int64, r int) plan {
	zoo := models.Benchmarks()
	var p plan
	for _, net := range zoo {
		for _, conv := range []bool{false, true} {
			name := fmt.Sprintf("axes/%s/conv=%v", net.Name, conv)
			p.order = append(p.order, t.add(name, pathSchedule, serve.ScheduleRequest{Model: net.Name, Options: axesOptions(conv)}, ""))
		}
	}
	g := rng(seed, r, 5)
	for i := 0; i < axesGenerated; i++ {
		net := genNetwork(g, zoo[i%len(zoo)], fmt.Sprintf("axes-r%d-%d", r, i))
		conv := i/len(zoo)%2 == 0
		p.order = append(p.order, t.add(net.Name, pathSchedule, serve.ScheduleRequest{Network: spell(net), Options: axesOptions(conv)}, ""))
	}
	g.Shuffle(len(p.order), func(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] })
	return p
}
