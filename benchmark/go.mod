module dimmunix/benchmark

go 1.24

require dimmunix v0.0.0

replace dimmunix => ../
