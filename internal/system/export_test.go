package system

// RunLoop exposes the run loop to the external tests, which drive it
// on scripted shards, with and without systemtest.Dense.
var RunLoop = run
