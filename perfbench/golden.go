package main

// recordedSeed is the default seed, whose expected outputs are recorded
// here instead of recomputed. TestRecordedFingerprints recomputes them
// with independent sim.Run calls and prints the values to paste when
// an intentional change to the simulation moves them.
const recordedSeed = 1

// recordedFingerprints are the sorted result fingerprints one operation
// of each offline workload produces at recordedSeed.
var recordedFingerprints = map[string][]string{
	"fig-sweep": {
		"0de7e244c3182098", "0de7e244c3182098", "18a23b7f6a037d2f", "191a9cd2d422d52c",
		"32e81cc54ed73f90", "3ec7189f64c373d0", "406cc26201d28358", "4fdc4fb82b9abd85",
		"5083bb6c977699ea", "5ee756788c33246b", "61c9f41cc1c31762", "6509c0287967e56b",
		"6509c0287967e56b", "6d0514b005b976da", "6fd6d27eda9b0579", "763030f931a4bab0",
		"7e1a51516063d1ff", "8f3ff3bc450a9b30", "918754aa09ff11c5", "93fe67beaddc1af2",
		"98bcb80c5e1b016b", "9cebc49a02679683", "9ecd9b1276893a31", "b21b544efab21776",
		"b21b544efab21776", "b21b544efab21776", "b4e7568ee816644c", "ba430c46ed0bbb7d",
		"c256d73069be4ba1", "d042617372bfa3d1", "d27a0aaea2aafd67", "f4139665dd9f9333",
		"f4139665dd9f9333", "f4139665dd9f9333", "f4139665dd9f9333", "f9225f1b3c42e7f9",
	},
	"measure-branch": {
		"18bd7d9321a2fe1a", "25ded4fbb38dc91f", "2785f619e85fe330", "32e6755cd81667a6",
		"547c2fcd697cb597", "561587541305a885", "577c0ab7173bffdd", "632714fb306dad52",
		"6b72c99729cc0acc", "6c0d3e358a6a24c4", "7d9dfe7e689a4344", "7fc3a6e219236f67",
		"913ca28078ceab3a", "931e0c44d152816e", "9a789ea17c4fd2c6", "a12879f1724acded",
		"a2e598cd0e073855", "a3951f5aabfd22c7", "af7938555a1d79df", "b064d3adbedb164b",
		"b3dfee0fe87f9930", "bb5428d09e26fed9", "ca306e4c81cb7013", "cca8657059234d3f",
		"d06453c203ca0345", "d68759cdf9c7c264", "db8021b323721786", "e58eb81184ccca94",
		"f54502843d367ed8", "ffb22c755978b183",
	},
}
