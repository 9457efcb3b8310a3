package lz4

// ByteLoopCompress is the reference compressor, for tests outside the
// package.
var ByteLoopCompress = freshCompress

// CheckedDecompress is the reference decoder, for tests outside the
// package.
var CheckedDecompress = checkedDecompress
