module shmcaffe/benchmark

go 1.22

require shmcaffe v0.0.0

replace shmcaffe => ../
