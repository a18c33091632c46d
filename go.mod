module rfp

go 1.23
