package main

// Matched campaign seeds: `-seed N` runs entry N mod 10 of its workload's
// table. At 64 experiments a campaign's cost depends heavily on which
// population its seed draws — over 60 to 110 consecutive campaign seeds the
// executed training iterations spread (inter-quartile) by 3.6 % on ff-resnet,
// 3.8 % on devfault-transformer-jit and 15.9 % on ff-resnet-fastpath, where
// the number of experiments that early-exit is binomial — so runs on raw
// seeds would differ by more than any bound a regression check could use.
// Each table holds the ten seeds of one scan (`bench -workload W -scan-seeds
// lo:hi`, campaign seeds 1 to 110, 1 to 111 and 1 to 60) whose executed
// iterations lie closest to the scan's median: 8 474 to 8 502, 4 648 to 4 688
// and 10 562 to 10 658 per 64 experiments. dist-resnet runs ff-resnet's
// populations.
var (
	ffSeeds       = []int64{11, 28, 39, 50, 63, 86, 91, 94, 102, 108}
	fastpathSeeds = []int64{8, 13, 35, 44, 47, 59, 63, 74, 81, 88}
	devfaultSeeds = []int64{3, 14, 15, 18, 28, 36, 37, 48, 58, 59}
)
