// Package postproc is the testdata stand-in for repro/internal/postproc:
// its chain inputs are seedtaint sinks outside health and postproc itself.
package postproc

func Process(in []byte) []byte { return in }

func PackBits(bits []byte) []byte { return bits }

func AppendPacked(dst, in []byte) []byte { return append(dst, in...) }
