package main

// committedTPCH holds the TPC-H answers (QueryResult.Check for Q1..Q22)
// of the databases the documented seeds generate, keyed by tpchKey. Query
// answers do not depend on the machine model, so every profile and
// storage layout must reproduce them.
var committedTPCH = map[string][]int64{
	// Tiny sizes, seed 1 (the tests).
	"sf0.001/seed1322719254": {66718472, 69860, 554396093, 164, 35363, 1133160, 0, 0, 71559, 253165, 0, 7889, 1633, 343704, 103292, 132, 0, 0, 0, 1048576, 0, 0},
	// Cal sizes, seed 1.
	"sf0.005/seed1322719254": {333887537, 50912, 2280522748, 725, 111929, 5492393, 63369, 19745, 597062, 526714, 998505, 46377, 8181, 1581460, 133275, 568, 207, 0, 2220, 3145758, 254, 0},
	// Cal sizes, the held-out seed.
	"sf0.005/seed2003655765": {332164790, 134686, 1906779309, 681, 168755, 6467948, 74855, 23986, 710274, 488510, 0, 36116, 8177, 1672054, 130750, 568, 0, 0, 5964, 1048595, 0, 0},
}

// heldOutSeed is the workload seed kept out of development and tuning:
// seeds 1 to 10 were used while building the benchmark, so a later
// performance claim should also hold at this seed.
const heldOutSeed = 9001
