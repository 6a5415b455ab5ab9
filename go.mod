module gbcr

go 1.22

toolchain go1.23.0
