package emr

// ChunkedSpec lets the external tests of package emr_test, which may
// import the workloads that import emr, build chunkedSpec's datasets.
var ChunkedSpec = chunkedSpec
