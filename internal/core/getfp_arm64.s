#include "textflag.h"

// func getfp() (fp, gp unsafe.Pointer)
//
// NOFRAME: the stub saves no frame record of its own, so R29 is still
// its caller's frame pointer.
TEXT ·getfp(SB), NOSPLIT|NOFRAME, $0-16
	MOVD R29, fp+0(FP)
	MOVD g, R0
	MOVD R0, gp+8(FP)
	RET
